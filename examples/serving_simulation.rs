//! End-to-end inference serving: streaming Poisson arrivals with
//! ShareGPT-like lengths through the Orca-style iteration-level scheduler,
//! paged KV cache, and any simulation backend — each replica built by
//! `SystemSpec::replica`, the constructor the `serve` and `fleet`
//! commands and the eval suites share.
//!
//! ```text
//! cargo run --release --example serving_simulation
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use neupims_core::backend::Backend;
use neupims_core::system::SystemSpec;
use neupims_types::request_id;
use neupims_workload::{arrival_times, ArrivalProcess, Dataset};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 60 requests arriving at ~3 per million cycles (3000 req/s at 1 GHz),
    // lengths drawn from the ShareGPT distributions.
    let mut rng = StdRng::seed_from_u64(1234);
    let arrivals = arrival_times(&mut rng, &ArrivalProcess::Poisson { rate: 3.0 }, 60)?;
    let dataset = Dataset::ShareGpt;

    // The same serving loop drives every system: swap the backend name
    // (GPT3-7B at its published TP/PP split, lump prefill, drop-only
    // preemption, analytic pricing).
    for backend_name in ["naive", "neupims"] {
        let spec = SystemSpec {
            backend: backend_name.to_owned(),
            max_batch: 64,
            ..SystemSpec::default()
        };
        let mut serving = spec.replica(0, None)?;
        let mut rng = StdRng::seed_from_u64(99);
        for (i, &at) in arrivals.iter().enumerate() {
            let input = dataset.sample_input(&mut rng);
            let output = dataset.sample_output(&mut rng).min(64); // cap for demo
            serving.submit(request_id(i)?, input, output, at)?;
        }
        let out = serving.run()?;
        println!(
            "\n{:<10}: {} requests, {} tokens in {:.1} ms",
            serving.backend().label(),
            out.completed,
            out.tokens,
            out.total_cycles as f64 / 1e6
        );
        println!(
            "  throughput {:.0} tokens/s | mean latency {:.2} ms | \
             {} iterations | peak KV util {:.1}%",
            out.tokens_per_sec(),
            out.mean_latency() / 1e6,
            out.iterations,
            out.peak_kv_utilization * 100.0
        );
        println!(
            "  latency p50 {:.2} ms | p95 {:.2} ms | p99 {:.2} ms",
            out.latency_percentile(50.0) as f64 / 1e6,
            out.latency_percentile(95.0) as f64 / 1e6,
            out.latency_percentile(99.0) as f64 / 1e6
        );
        println!(
            "  TTFT p50 {:.2} ms | TPOT p50 {:.3} ms",
            out.ttft_percentile(50.0) as f64 / 1e6,
            out.tpot_percentile(50.0) / 1e6
        );
    }
    Ok(())
}
