//! Quickstart: build each backend by name, run one batched decode
//! iteration on each system, and compare.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use neupims_core::backend::{backend_from_name, BACKEND_NAMES};
use neupims_pim::calibrate;
use neupims_types::{LlmConfig, NeuPimsConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Hardware: the paper's Table 2 prototype, calibrated once.
    let cfg = NeuPimsConfig::table2();
    cfg.validate()?;
    println!("calibrating PIM constants from the cycle model ...");
    let cal = calibrate(&cfg)?;
    println!(
        "  L_tile = {:.0} cycles, L_GWRITE = {:.0} cycles, \
         PIM in-bank advantage = {:.1}x\n",
        cal.l_tile,
        cal.l_gwrite,
        cal.pim_advantage()
    );

    // 2. Model and workload: GPT3-13B, a 256-request batch mid-generation
    //    with 300 tokens of context each.
    let model = LlmConfig::gpt3_13b();
    let seq_lens = vec![300u64; 256];

    // 3. Every system behind the same `Backend` API, at the model's
    //    published tensor parallelism and per-stage layer share.
    println!(
        "{:<12} {:>14} {:>14} {:>10}",
        "system", "cycles/iter", "tokens/s", "vs NPU"
    );
    let mut npu_only_cycles = None;
    for name in BACKEND_NAMES {
        let iter = backend_from_name(name, &cfg, &cal)?.decode_iteration(
            &model,
            model.parallelism.tp,
            model.num_layers / model.parallelism.pp,
            &seq_lens,
        )?;
        if name == "npu-only" {
            npu_only_cycles = Some(iter.total_cycles());
        }
        let speedup = npu_only_cycles
            .map(|b| format!("{:>9.2}x", b as f64 / iter.total_cycles() as f64))
            .unwrap_or_else(|| "         -".to_owned());
        println!(
            "{:<12} {:>14} {:>14.0} {}",
            iter.backend,
            iter.total_cycles(),
            iter.tokens_per_sec(),
            speedup
        );
    }
    Ok(())
}
