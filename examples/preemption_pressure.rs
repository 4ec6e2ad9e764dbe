//! One KV-pressure burst trace, three preemption policies, two serving
//! schedulers, side by side: drop-only shedding vs vLLM-style recompute
//! vs LRU swap, under lump prefill and NPU/PIM sub-batch interleaving —
//! the worked example behind the "Preemption × scheduler policy" section
//! of `docs/SCHEDULING.md` and the `docs/MEMORY.md` chapter.
//!
//! ```text
//! cargo run --release --example preemption_pressure
//! ```

use neupims_core::preempt::preemption_from_name;
use neupims_core::scheduler::scheduler_from_name;
use neupims_core::serving::{ServingConfig, ServingOutcome, ServingSim};
use neupims_core::{Device, DeviceMode};
use neupims_pim::calibrate;
use neupims_types::{request_id, LlmConfig, NeuPimsConfig, SimError};
use neupims_workload::{kv_pressure_burst, PressureSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A deliberately tight device: 4 channels of 80 MiB KV budget, so the
/// default pressure burst (three waves of eight ~256-prompt requests
/// decoding ~200 tokens each) crowds every channel mid-decode.
fn tight_sim(scheduler: &str, preemption: &str) -> ServingSim {
    let mut hw = NeuPimsConfig::table2();
    hw.mem.channels = 4;
    hw.mem.capacity_per_channel = 80 << 20;
    let cal = calibrate(&hw).unwrap();
    ServingSim::with_scheduler(
        Device::new(hw, cal, DeviceMode::neupims()),
        LlmConfig::gpt3_7b(),
        ServingConfig {
            max_batch: 16,
            tp: 4,
            layers: 32,
            target_completions: 0,
            slo: None,
        },
        scheduler_from_name(scheduler, 1024).unwrap(),
    )
    .with_preemption(preemption_from_name(preemption).unwrap())
}

fn run(scheduler: &str, preemption: &str) -> Result<ServingOutcome, SimError> {
    let mut sim = tight_sim(scheduler, preemption);
    let mut rng = StdRng::seed_from_u64(0xBEE5);
    for (i, r) in kv_pressure_burst(&mut rng, &PressureSpec::default())
        .iter()
        .enumerate()
    {
        sim.submit(request_id(i)?, r.input_len, r.output_len, r.arrival)?;
    }
    sim.run()
}

fn main() -> Result<(), SimError> {
    println!("calibrating ...");
    println!(
        "\n## Preemption x scheduler on the KV-pressure burst trace\n\n\
         24 requests in three bursts (seed 0xBEE5, defaults of \
         `PressureSpec`), 4 channels x 80 MiB of KV.\n"
    );
    println!(
        "| preemption | scheduler | completed | dropped | preempt / restore | \
         stall (ms) | restore overhead (ms) | total (ms) | tokens/s | p50 latency (ms) |"
    );
    println!("|---|---|---:|---:|---:|---:|---:|---:|---:|---:|");
    for preemption in ["drop", "recompute", "swap"] {
        for scheduler in ["lump", "interleaved"] {
            let out = run(scheduler, preemption)?;
            assert_eq!(
                out.completed + out.dropped,
                out.submitted,
                "conservation must hold for {preemption}/{scheduler}"
            );
            println!(
                "| {} | {} | {} | {} | {} / {} | {:.1} | {:.1} | {:.1} | {:.0} | {:.1} |",
                preemption,
                scheduler,
                out.completed,
                out.dropped,
                out.preemptions,
                out.restores,
                out.preemption_stall_cycles as f64 / 1e6,
                out.restore_overhead_cycles as f64 / 1e6,
                out.total_cycles as f64 / 1e6,
                out.tokens_per_sec(),
                out.latency_percentile(50.0) as f64 / 1e6,
            );
        }
    }

    let drop = run("lump", "drop")?;
    let rec = run("lump", "recompute")?;
    println!(
        "\nrecompute vs drop-only (lump): {} vs {} completed, {} vs {} dropped — \
         preemption turns shed load into {} restores at {:.1} ms of re-paid prefill",
        rec.completed,
        drop.completed,
        rec.dropped,
        drop.dropped,
        rec.restores,
        rec.restore_overhead_cycles as f64 / 1e6,
    );
    Ok(())
}
