//! Cross-crate integration: every device mode executes a full decode
//! iteration end-to-end (workload sampling -> scheduling -> compilation ->
//! timing), and the paper's headline comparisons hold.

use rand::rngs::StdRng;
use rand::SeedableRng;

use neupims_core::device::{Device, DeviceMode, SbiPolicy};
use neupims_pim::calibrate;
use neupims_sched::CostModelKind;
use neupims_types::{LlmConfig, NeuPimsConfig};
use neupims_workload::{warm_seq_lens, Dataset};

fn setup() -> (NeuPimsConfig, neupims_pim::PimCalibration) {
    let cfg = NeuPimsConfig::table2();
    let cal = calibrate(&cfg).unwrap();
    (cfg, cal)
}

fn sharegpt_batch(n: usize, seed: u64) -> Vec<u64> {
    warm_seq_lens(&mut StdRng::seed_from_u64(seed), Dataset::ShareGpt, n)
}

#[test]
fn all_modes_run_all_models() {
    let (cfg, cal) = setup();
    let seqs = sharegpt_batch(64, 1);
    for model in LlmConfig::table3() {
        for mode in [
            DeviceMode::NpuOnly,
            DeviceMode::NaiveNpuPim,
            DeviceMode::NeuPims {
                gmlbp: false,
                sbi: SbiPolicy::Off,
            },
            DeviceMode::NeuPims {
                gmlbp: true,
                sbi: SbiPolicy::Always,
            },
            DeviceMode::neupims(),
        ] {
            let d = Device::new(cfg, cal, mode);
            let layers = model.num_layers / model.parallelism.pp;
            let b = d
                .decode_iteration(&model, model.parallelism.tp, layers, &seqs)
                .unwrap_or_else(|e| panic!("{} / {}: {e}", model.name, mode.label()));
            assert!(b.total_cycles > 0, "{} {}", model.name, mode.label());
            assert_eq!(b.tokens, 64);
        }
    }
}

#[test]
fn headline_speedups_match_paper_bands() {
    // Paper: NPU+PIM ~1.5x over NPU-only (avg); NeuPIMs 1.13x-3x over
    // NPU+PIM; NeuPIMs ~2.4x over NPU-only (avg), growing with batch.
    let (cfg, cal) = setup();
    let model = LlmConfig::gpt3_7b();
    let mut over_naive = Vec::new();
    let mut over_npu = Vec::new();
    for (i, batch) in [128usize, 256, 512].into_iter().enumerate() {
        let seqs = sharegpt_batch(batch, 42 + i as u64);
        let t = |mode| {
            Device::new(cfg, cal, mode)
                .decode_iteration(&model, 4, model.num_layers, &seqs)
                .unwrap()
                .total_cycles as f64
        };
        let npu = t(DeviceMode::NpuOnly);
        let naive = t(DeviceMode::NaiveNpuPim);
        let neu = t(DeviceMode::neupims());
        over_naive.push(naive / neu);
        over_npu.push(npu / neu);
    }
    let avg_naive = over_naive.iter().sum::<f64>() / over_naive.len() as f64;
    let avg_npu = over_npu.iter().sum::<f64>() / over_npu.len() as f64;
    assert!(
        avg_naive > 1.13 && avg_naive < 3.0,
        "NeuPIMs/NPU+PIM avg {avg_naive}"
    );
    assert!(
        avg_npu > 1.5 && avg_npu < 4.5,
        "NeuPIMs/NPU-only avg {avg_npu}"
    );
    // Gains grow with batch size (Figure 12's trend).
    assert!(
        over_naive.last().unwrap() >= over_naive.first().unwrap(),
        "{over_naive:?}"
    );
}

#[test]
fn scheduler_estimator_matches_device_accounting() {
    // Algorithm 1's estimate (used for bin packing) must equal the PIM
    // busy time the device charges per layer — the scheduler and the
    // engine share one model of the hardware.
    let (cfg, cal) = setup();
    let model = LlmConfig::gpt3_7b();
    let d = Device::new(cfg, cal, DeviceMode::neupims());
    let est = d.cost_model(&model, 4, CostModelKind::Analytic).unwrap();
    let seqs = sharegpt_batch(32, 7);
    let b = d
        .decode_iteration(&model, 4, model.num_layers, &seqs)
        .unwrap();
    let estimated_total: f64 = seqs.iter().map(|&s| est.estimate(s)).sum();
    let charged_total: u64 = b.pim_busy.iter().sum();
    let per_layer = charged_total as f64 / model.num_layers as f64;
    let rel = (per_layer - estimated_total).abs() / estimated_total;
    assert!(
        rel < 0.01,
        "estimator {estimated_total} vs device {per_layer}"
    );
}

#[test]
fn alpaca_and_sharegpt_rank_consistently() {
    let (cfg, cal) = setup();
    let model = LlmConfig::gpt3_13b();
    for dataset in [Dataset::Alpaca, Dataset::ShareGpt] {
        let seqs = warm_seq_lens(&mut StdRng::seed_from_u64(9), dataset, 256);
        let t = |mode| {
            Device::new(cfg, cal, mode)
                .decode_iteration(&model, 4, model.num_layers, &seqs)
                .unwrap()
                .total_cycles
        };
        let npu = t(DeviceMode::NpuOnly);
        let naive = t(DeviceMode::NaiveNpuPim);
        let neu = t(DeviceMode::neupims());
        assert!(neu < naive, "{dataset:?}: {neu} vs naive {naive}");
        assert!(neu < npu, "{dataset:?}: {neu} vs npu {npu}");
    }
}
