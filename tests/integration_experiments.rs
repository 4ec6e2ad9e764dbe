//! Cross-crate integration: the experiment harness regenerates the paper
//! artifacts that are not eval suites with the comparative shapes intact.

use neupims_core::experiments::{
    area_overhead, fig12_throughput, fig4_roofline, fig5_gpu_util, table5_power, ExperimentContext,
};
use neupims_types::LlmConfig;
use neupims_workload::Dataset;

fn ctx() -> ExperimentContext {
    ExperimentContext::table2().unwrap().with_samples(3)
}

#[test]
fn fig12_shape_holds_across_models_and_datasets() {
    let c = ctx();
    for dataset in Dataset::ALL {
        for model in [LlmConfig::gpt3_7b(), LlmConfig::gpt3_13b()] {
            for batch in [128usize, 384] {
                let rows = fig12_throughput(&c, dataset, &model, batch).unwrap();
                let get = |s: &str| rows.iter().find(|r| r.system == s).unwrap().tokens_per_sec;
                // The paper's ordering: NeuPIMs on top, naive next, the two
                // homogeneous baselines close together at the bottom.
                assert!(
                    get("NeuPIMs") > get("NPU+PIM"),
                    "{dataset:?} {} B={batch}",
                    model.name
                );
                let homo_ratio = get("GPU-only") / get("NPU-only");
                assert!(
                    homo_ratio > 0.5 && homo_ratio < 2.0,
                    "GPU-only and NPU-only should be close: {homo_ratio}"
                );
            }
        }
    }
}

#[test]
fn fig12_gains_grow_with_batch_size() {
    let c = ctx();
    let model = LlmConfig::gpt3_7b();
    let gain = |batch| {
        let rows = fig12_throughput(&c, Dataset::ShareGpt, &model, batch).unwrap();
        let get = |s: &str| rows.iter().find(|r| r.system == s).unwrap().tokens_per_sec;
        get("NeuPIMs") / get("NPU+PIM")
    };
    assert!(gain(512) > gain(64), "{} vs {}", gain(512), gain(64));
}

#[test]
fn tables_and_motivation_artifacts() {
    // Table 5 bands.
    let t5 = table5_power(&ctx()).unwrap();
    let ratio = t5.neupims_mw / t5.baseline_mw;
    assert!(ratio > 1.2 && ratio < 3.0, "power ratio {ratio}");
    assert!(t5.energy_ratio < 1.0, "energy {}", t5.energy_ratio);
    // Motivation figures.
    assert_eq!(fig4_roofline().len(), 8);
    assert_eq!(fig5_gpu_util().len(), 8);
    // Area overhead ~= the paper's 3.11%.
    assert!((area_overhead() - 0.0311).abs() < 0.001);
}
