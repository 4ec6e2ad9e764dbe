//! Cross-crate integration: multi-device scaling (Section 7 / Figure 14)
//! and its interaction with the model zoo.
//!
//! Figure 14 deploys one NeuPIMs device as `pp` pipeline stages over its
//! own PCIe link, priced at device-internal `tp`. The `f64::to_bits()`
//! pins below were recorded from the retired divide-and-ceil multi-device
//! model before it was deleted; that deployment must keep reproducing
//! them.

use neupims_core::device::{Device, DeviceMode};
use neupims_core::experiments::fig14_parallelism;
use neupims_core::interconnect::PcieLink;
use neupims_core::sharding::{ClusterSpec, ShardedBackend};
use neupims_pim::calibrate;
use neupims_types::{LlmConfig, NeuPimsConfig, SimError};

fn device() -> Device {
    let cfg = NeuPimsConfig::table2();
    let cal = calibrate(&cfg).unwrap();
    Device::new(cfg, cal, DeviceMode::neupims())
}

/// System tokens/s of `dev` deployed as Figure 14 does.
fn fig14_deployment(
    dev: &Device,
    model: &LlmConfig,
    tp: u32,
    pp: u32,
    seqs: &[u64],
) -> Result<f64, SimError> {
    ShardedBackend::new(
        dev,
        ClusterSpec::new(1, pp),
        Box::new(PcieLink::from_config(dev.config().interconnect)),
    )?
    .cluster_tokens_per_sec(model, tp, seqs)
}

#[test]
fn fig14_prefers_tp_at_every_device_count() {
    let rows = fig14_parallelism(&NeuPimsConfig::table2()).unwrap();
    let get = |tp, pp| {
        rows.iter()
            .find(|r| r.tp == tp && r.pp == pp)
            .unwrap()
            .tokens_per_sec
    };
    for (winner, loser) in [
        ((4, 1), (2, 2)),
        ((8, 1), (4, 2)),
        ((8, 2), (4, 4)),
        ((16, 4), (8, 8)),
    ] {
        assert!(
            get(winner.0, winner.1) > get(loser.0, loser.1),
            "TP-heavy {winner:?} must beat PP-heavy {loser:?}"
        );
    }
}

#[test]
fn fig14_rows_match_the_frozen_bits() {
    const FROZEN: [(u32, u32, u64); 8] = [
        (4, 1, 0x40dd249e642dba26),  // 29842.474864417825
        (2, 2, 0x40d2dfb32726c5e1),  // 19326.79926461529
        (8, 1, 0x40f282cf63a83cbb),  // 75820.9618303654
        (4, 2, 0x40e2ed4433e71e29),  // 38762.1313357915
        (8, 2, 0x40f306302c6eaccc),  // 77923.0108477354
        (4, 4, 0x40e55d7135bdd99c),  // 43755.537810254114
        (16, 4, 0x40f9843643af259b), // 104515.39152445497
        (8, 8, 0x40f38f7facb9fbc4),  // 80119.97966955515
    ];
    let rows = fig14_parallelism(&NeuPimsConfig::table2()).unwrap();
    assert_eq!(rows.len(), FROZEN.len());
    for (row, (tp, pp, bits)) in rows.iter().zip(FROZEN) {
        assert_eq!((row.tp, row.pp, row.devices), (tp, pp, tp * pp));
        assert_eq!(
            row.tokens_per_sec.to_bits(),
            bits,
            "(tp{tp},pp{pp}): {} != frozen {}",
            row.tokens_per_sec,
            f64::from_bits(bits)
        );
    }
}

#[test]
fn table3_defaults_deploy_cleanly() {
    // Every Table 3 model runs at its published (TP, PP) with 256 requests.
    const FROZEN: [(&str, u64); 4] = [
        ("GPT3-7B", 0x40dd246b2f4a80c0),   // 29841.674761415226
        ("GPT3-13B", 0x40cc6aa9634bfb57),  // 14549.32334279797
        ("GPT3-30B", 0x40c1afd8eec6a2ee),  // 9055.694786862903
        ("GPT3-175B", 0x40aba8f4a785a495), // 3540.4778405917555
    ];
    let d = device();
    let seqs = vec![300u64; 256];
    let models = LlmConfig::table3();
    assert_eq!(models.len(), FROZEN.len());
    for (model, (name, bits)) in models.iter().zip(FROZEN) {
        assert_eq!(model.name, name);
        let (tp, pp) = (model.parallelism.tp, model.parallelism.pp);
        let thr = fig14_deployment(&d, model, tp, pp, &seqs)
            .unwrap_or_else(|e| panic!("{}: {e}", model.name));
        assert_eq!(thr.to_bits(), bits, "{}: {thr}", model.name);
    }
}

#[test]
fn bigger_models_are_slower_at_equal_deployment() {
    let d = device();
    let seqs = vec![300u64; 256];
    let t7 = fig14_deployment(&d, &LlmConfig::gpt3_7b(), 4, 1, &seqs).unwrap();
    let t13 = fig14_deployment(&d, &LlmConfig::gpt3_13b(), 4, 1, &seqs).unwrap();
    assert!(t7 > t13, "7B {t7} vs 13B {t13}");
}

#[test]
fn pipeline_needs_enough_requests() {
    let d = device();
    let model = LlmConfig::gpt3_7b();
    // PP=8 with only 4 requests cannot form micro-batches.
    assert!(fig14_deployment(&d, &model, 4, 8, &[100; 4]).is_err());
    // Zero device-internal TP is rejected, not priced.
    assert!(fig14_deployment(&d, &model, 0, 1, &[100; 4]).is_err());
}
