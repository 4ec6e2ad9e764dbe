//! Ablation explorer: toggle the NeuPIMs techniques (dual row buffers,
//! greedy min-load bin packing, sub-batch interleaving) by backend name and
//! watch the Figure 13 crossover emerge across batch sizes.
//!
//! ```text
//! cargo run --release --example ablation_explorer
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use neupims_core::backend::{backend_from_name, Backend};
use neupims_pim::calibrate;
use neupims_types::{LlmConfig, NeuPimsConfig};
use neupims_workload::{warm_seq_lens, Dataset};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = NeuPimsConfig::table2();
    println!("calibrating ...");
    let cal = calibrate(&cfg)?;
    let model = LlmConfig::gpt3_7b();

    // Every ablation arm is a named backend in the registry.
    let variants: [(&str, &str); 5] = [
        ("NPU+PIM (baseline)", "naive"),
        ("+DRB", "neupims-drb"),
        ("+DRB+GMLBP", "neupims-drb-gmlbp"),
        ("+DRB+GMLBP+SBI", "neupims-drb-gmlbp-sbi"),
        ("adaptive SBI", "neupims"),
    ];

    println!("\nGPT3-7B / ShareGPT — throughput normalized to NPU+PIM\n");
    print!("{:<20}", "variant");
    let batches = [64usize, 128, 256, 384, 512];
    for b in batches {
        print!("{:>9}", format!("B={b}"));
    }
    println!();

    let mut base = vec![0.0f64; batches.len()];
    for (name, backend_name) in variants {
        let backend = backend_from_name(backend_name, &cfg, &cal)?;
        print!("{name:<20}");
        for (i, &batch) in batches.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(7 ^ batch as u64);
            let seqs = warm_seq_lens(&mut rng, Dataset::ShareGpt, batch);
            let iter = backend.decode_iteration(&model, 4, model.num_layers, &seqs)?;
            let thr = iter.tokens_per_sec();
            if base[i] == 0.0 {
                base[i] = thr;
            }
            print!("{:>9.2}", thr / base[i]);
        }
        println!();
    }
    println!(
        "\nNote the SBI column crossover: splitting the batch only pays \
         once the batch is large enough to keep the systolic arrays and \
         the weight re-streaming efficient."
    );
    Ok(())
}
