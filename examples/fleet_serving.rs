//! SLO-aware fleet serving: streaming Poisson arrivals with ShareGPT
//! lengths dispatched over four NeuPIMs replicas, comparing the three
//! dispatch policies on the exact same workload — then a heterogeneous
//! fleet (NeuPIMs + GPU roofline replicas) under KV-pressure-aware
//! dispatch.
//!
//! ```text
//! cargo run --release --example fleet_serving
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use neupims_core::backend::{backend_from_name, Backend};
use neupims_core::fleet::{policy_from_name, FleetRequest, FleetSim, POLICY_NAMES};
use neupims_core::serving::{ServingConfig, ServingSim, SloTargets};
use neupims_pim::calibrate;
use neupims_types::{request_id, LlmConfig, NeuPimsConfig, SimError};
use neupims_workload::{arrival_times, ArrivalProcess, Dataset};

fn workload(n: usize) -> Result<Vec<FleetRequest>, SimError> {
    let mut rng = StdRng::seed_from_u64(77);
    let dataset = Dataset::ShareGpt;
    // ~6000 requests/s at a 1 GHz device clock.
    let arrivals = arrival_times(&mut rng, &ArrivalProcess::Poisson { rate: 6.0 }, n)?;
    arrivals
        .iter()
        .enumerate()
        .map(|(i, &at)| {
            Ok(FleetRequest {
                id: request_id(i)?,
                input_len: dataset.sample_input(&mut rng),
                output_len: dataset.sample_output(&mut rng).min(48), // cap for demo
                arrival: at,
            })
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = NeuPimsConfig::table2();
    println!("calibrating ...");
    let cal = calibrate(&cfg)?;
    let model = LlmConfig::gpt3_7b();
    let serving_cfg = ServingConfig {
        max_batch: 32,
        tp: model.parallelism.tp,
        layers: model.num_layers / model.parallelism.pp,
        target_completions: 0,
        // 20 ms to the first token, 8 ms per token afterwards.
        slo: Some(SloTargets {
            ttft: 20_000_000,
            tpot: 8_000_000.0,
        }),
    };
    let requests = workload(48)?;

    println!("\n== 4x NeuPIMs replicas, one policy per run ==");
    println!(
        "{:<12} {:>10} {:>8} {:>12} {:>10} {:>10} {:>8}",
        "policy", "tokens/s", "goodput", "p99 TTFT ms", "p99 lat ms", "SLO att.", "dropped"
    );
    for policy in POLICY_NAMES {
        let replicas: Vec<ServingSim<Box<dyn Backend>>> = (0..4)
            .map(|_| {
                Ok(ServingSim::new(
                    backend_from_name("neupims", &cfg, &cal)?,
                    model.clone(),
                    serving_cfg.clone(),
                ))
            })
            .collect::<Result<_, Box<dyn std::error::Error>>>()?;
        let mut fleet = FleetSim::new(replicas, policy_from_name(policy)?)?;
        for &req in &requests {
            fleet.submit(req)?;
        }
        let out = fleet.run()?;
        println!(
            "{:<12} {:>10.0} {:>8.0} {:>12.2} {:>10.2} {:>7.1}% {:>8}",
            policy,
            out.tokens_per_sec(),
            out.goodput(),
            out.ttft_percentile(99.0) as f64 / 1e6,
            out.latency_percentile(99.0) as f64 / 1e6,
            out.slo_attainment() * 100.0,
            out.dropped
        );
    }

    println!("\n== heterogeneous fleet: 2x NeuPIMs + 2x GPU, kv-aware dispatch ==");
    let replicas: Vec<ServingSim<Box<dyn Backend>>> = ["neupims", "neupims", "gpu", "gpu"]
        .iter()
        .map(|name| {
            Ok(ServingSim::new(
                backend_from_name(name, &cfg, &cal)?,
                model.clone(),
                serving_cfg.clone(),
            ))
        })
        .collect::<Result<_, Box<dyn std::error::Error>>>()?;
    let labels: Vec<String> = replicas
        .iter()
        .map(|r| r.backend().label().to_owned())
        .collect();
    let mut fleet = FleetSim::new(replicas, policy_from_name("kv-aware")?)?;
    for &req in &requests {
        fleet.submit(req)?;
    }
    let out = fleet.run()?;
    for (i, r) in out.replicas.iter().enumerate() {
        println!(
            "  replica {} ({:<8}): {:>3} completed, {:>5} tokens, busy {:>8.2} ms",
            i,
            labels[i],
            r.completed,
            r.tokens,
            r.total_cycles as f64 / 1e6
        );
    }
    println!(
        "  fleet: {:.0} tokens/s, SLO attainment {:.1}%, goodput {:.0} tokens/s",
        out.tokens_per_sec(),
        out.slo_attainment() * 100.0,
        out.goodput()
    );
    Ok(())
}
