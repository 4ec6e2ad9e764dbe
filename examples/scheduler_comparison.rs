//! One request trace, three iteration-level schedulers, side by side:
//! lump prefill (standalone NPUs), Orca/vLLM-style chunked prefill, and
//! NeuPIMs-style NPU/PIM sub-batch interleaving — the worked example
//! behind `docs/SCHEDULING.md`.
//!
//! ```text
//! cargo run --release --example scheduler_comparison
//! ```

use neupims_core::device::Device;
use neupims_core::scheduler::{scheduler_from_name, IterationOccupancy};
use neupims_core::serving::{ServingConfig, ServingOutcome, ServingSim, StepEvent};
use neupims_types::LlmConfig;

/// The shared trace: twelve 8192-token prompts, 64 output tokens each,
/// arriving every 200M cycles (200 ms at 1 GHz) — every prompt's encoding
/// overlaps the previous requests' decode tails, which is exactly the
/// mixed prefill+decode regime the paper's interleaving targets.
fn submit_trace(sim: &mut ServingSim<Device>) {
    for i in 0..12u32 {
        sim.submit(i, 8192, 64, i as u64 * 200_000_000).unwrap();
    }
}

/// Runs the trace under `scheduler`, returning the outcome and the first
/// eight iterations (numbered) that end at or after the second arrival at
/// 200 ms. `start` is wall clock, so `Waited` gaps — e.g. the lump run's
/// prefill delays — are accounted for.
fn run(scheduler: &str) -> (ServingOutcome, Vec<(u64, IterationOccupancy)>) {
    let mut sim = ServingSim::with_scheduler(
        Device::table2().unwrap(),
        LlmConfig::gpt3_7b(),
        ServingConfig {
            max_batch: 32,
            tp: 4,
            layers: 32,
            target_completions: 0,
            slo: None,
        },
        scheduler_from_name(scheduler, 4096).unwrap(),
    );
    submit_trace(&mut sim);
    let (mut iteration, mut window) = (0, Vec::new());
    loop {
        match sim.step().unwrap() {
            StepEvent::Finished => return (sim.outcome(), window),
            StepEvent::Iteration => {
                let s = *sim.last_iteration().unwrap();
                if s.start + s.cycles >= 200_000_000 && window.len() < 8 {
                    window.push((iteration, s));
                }
                iteration += 1;
            }
            StepEvent::Waited | StepEvent::Dropped(_) => {}
        }
    }
}

fn main() {
    println!("calibrating ...");
    let outcomes: Vec<_> = ["lump", "chunked", "interleaved"]
        .into_iter()
        .map(|name| {
            let (out, window) = run(name);
            (name, out, window)
        })
        .collect();

    println!("\n## Outcome summary (same trace, chunk budget 4096)\n");
    println!(
        "| scheduler | total (ms) | tokens/s | iterations | mean batch | \
         p50 TTFT (ms) | on-device prefill (ms) | hidden (ms) | overlap eff |"
    );
    println!("|---|---:|---:|---:|---:|---:|---:|---:|---:|");
    for (name, out, _) in &outcomes {
        println!(
            "| {} | {:.1} | {:.1} | {} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1}% |",
            name,
            out.total_cycles as f64 / 1e6,
            out.tokens_per_sec(),
            out.iterations,
            out.mean_decode_batch(),
            out.ttft_percentile(50.0) as f64 / 1e6,
            out.prefill_cycles_on_device as f64 / 1e6,
            out.overlap_hidden_cycles as f64 / 1e6,
            out.overlap_efficiency() * 100.0,
        );
    }

    // Iteration-by-iteration view of the window where request 1's prompt
    // (arriving at 200 ms) is encoded while request 0 decodes.
    for (name, _, window) in &outcomes {
        println!("\n## {name}: iterations around the second arrival\n");
        println!("| iter | start (ms) | cycles (ms) | decode reqs | prefill tokens | decode (ms) | prefill (ms) | hidden (ms) |");
        println!("|---:|---:|---:|---:|---:|---:|---:|---:|");
        for (i, s) in window {
            println!(
                "| {} | {:.2} | {:.2} | {} | {} | {:.2} | {:.2} | {:.2} |",
                i,
                s.start as f64 / 1e6,
                s.cycles as f64 / 1e6,
                s.decode_requests,
                s.prefill_tokens,
                s.decode_cycles as f64 / 1e6,
                s.prefill_cycles as f64 / 1e6,
                s.hidden_cycles as f64 / 1e6,
            );
        }
    }

    let lump = &outcomes[0].1;
    let sbi = &outcomes[2].1;
    println!(
        "\ninterleaved vs lump: {:.1} vs {:.1} tokens/s ({:+.1}%), {:.1} ms of prefill hidden",
        sbi.tokens_per_sec(),
        lump.tokens_per_sec(),
        (sbi.tokens_per_sec() / lump.tokens_per_sec() - 1.0) * 100.0,
        sbi.overlap_hidden_cycles as f64 / 1e6,
    );
}
