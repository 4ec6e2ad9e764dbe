//! Cross-crate integration: the experiment harness regenerates the paper
//! artifacts that are not eval suites with the comparative shapes intact.

use neupims_core::experiments::{fig4_roofline, fig5_gpu_util, table5_power};
use neupims_types::NeuPimsConfig;

#[test]
fn tables_and_motivation_artifacts() {
    // Table 5 bands.
    let t5 = table5_power(&NeuPimsConfig::table2()).unwrap();
    let ratio = t5.neupims_mw / t5.baseline_mw;
    assert!(ratio > 1.2 && ratio < 3.0, "power ratio {ratio}");
    assert!(t5.energy_ratio < 1.0, "energy {}", t5.energy_ratio);
    // Motivation figures.
    assert_eq!(fig4_roofline().len(), 8);
    assert_eq!(fig5_gpu_util().len(), 8);
}
