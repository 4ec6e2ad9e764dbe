//! Backend parity: the `Backend` implementations must price cycles
//! identically to the device-level paths beneath them, the name registry
//! must build the same systems as direct construction, and the warm-batch
//! path (`SystemSpec::warm_means`) must agree with a direct backend call.

use neupims_core::backend::{backend_from_name, Backend, GpuRooflineBackend, TransPimBackend};
use neupims_core::device::{Device, DeviceMode, SbiPolicy};
use neupims_core::system::SystemSpec;
use neupims_pim::calibrate;
use neupims_types::{GpuSpec, LlmConfig, NeuPimsConfig};
use neupims_workload::warm_seq_lens;
use neupims_workload::Dataset::ShareGpt;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn setup() -> (NeuPimsConfig, neupims_pim::PimCalibration) {
    let cfg = NeuPimsConfig::table2();
    let cal = calibrate(&cfg).unwrap();
    (cfg, cal)
}

fn batches() -> Vec<Vec<u64>> {
    vec![
        vec![376; 256],
        vec![48; 64],
        (1..=96).map(|i| 16 * i as u64).collect(),
        vec![4096, 32, 32, 32, 2000, 8],
    ]
}

#[test]
fn neupims_backend_matches_legacy_device_in_every_mode() {
    let (cfg, cal) = setup();
    let model = LlmConfig::gpt3_7b();
    let modes = [
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
    ];
    // The device is its own backend: the trait path labels the inherent
    // pricing and changes nothing else.
    for mode in modes {
        let device = Device::new(cfg, cal, mode);
        for seqs in batches() {
            let legacy = device
                .decode_iteration(&model, 4, model.num_layers, &seqs)
                .unwrap();
            let via_backend =
                Backend::decode_iteration(&device, &model, 4, model.num_layers, &seqs).unwrap();
            assert_eq!(via_backend.backend, mode.label());
            assert_eq!(
                legacy,
                via_backend.breakdown,
                "{} diverged on {seqs:?}",
                mode.label()
            );
        }
        // Prefill parity too.
        let legacy = device.prefill_cycles(&model, 4, 8, &[200; 16]).unwrap();
        let via_backend = Backend::prefill_cycles(&device, &model, 4, 8, &[200; 16]).unwrap();
        assert_eq!(legacy, via_backend, "{} prefill diverged", mode.label());
    }
}

#[test]
fn registry_backends_match_their_legacy_paths() {
    let (cfg, cal) = setup();
    let model = LlmConfig::gpt3_7b();
    let seqs = vec![300u64; 128];
    let legacy: Vec<u64> = vec![
        {
            // Registry GPU applies the Section 8.1 fairness bandwidth.
            let mut gpu = GpuSpec::a100();
            gpu.mem_bw_bytes_per_sec = cal.mem_stream_bw * cfg.mem.channels as f64 * 1e9;
            GpuRooflineBackend::new(gpu)
                .decode_iteration(&model, 4, model.num_layers, &seqs)
                .unwrap()
                .total_cycles()
        },
        Device::new(cfg, cal, DeviceMode::NpuOnly)
            .decode_iteration(&model, 4, model.num_layers, &seqs)
            .unwrap()
            .total_cycles,
        Device::new(cfg, cal, DeviceMode::NaiveNpuPim)
            .decode_iteration(&model, 4, model.num_layers, &seqs)
            .unwrap()
            .total_cycles,
        Device::new(cfg, cal, DeviceMode::neupims())
            .decode_iteration(&model, 4, model.num_layers, &seqs)
            .unwrap()
            .total_cycles,
        TransPimBackend::new(cfg, cal)
            .decode_iteration(&model, 4, model.num_layers, &seqs)
            .unwrap()
            .total_cycles(),
    ];
    for (name, expect) in ["gpu", "npu-only", "naive", "neupims", "transpim"]
        .into_iter()
        .zip(legacy)
    {
        let b = backend_from_name(name, &cfg, &cal).unwrap();
        let got = b
            .decode_iteration(&model, 4, model.num_layers, &seqs)
            .unwrap()
            .total_cycles();
        assert_eq!(got, expect, "registry backend {name} diverged");
    }
}

/// The warm-batch path prices exactly what a direct backend call prices on
/// the batch the shared sampler draws.
#[test]
fn warm_batch_path_agrees_with_direct_backend_calls() {
    let (cfg, cal) = setup();
    let model = LlmConfig::gpt3_7b();
    let (seed, batch) = (7, 64);
    let seqs = warm_seq_lens(
        &mut StdRng::seed_from_u64(seed ^ batch as u64),
        ShareGpt,
        batch,
    );
    let device = Device::new(cfg, cal, DeviceMode::neupims());
    let (tp, layers) = (model.parallelism.tp, model.num_layers);
    let direct = Backend::decode_iteration(&device, &model, tp, layers, &seqs).unwrap();
    let (tokens_per_sec, util) = SystemSpec::default()
        .warm_means(ShareGpt, batch, seed, 1, None)
        .unwrap();
    assert_eq!(tokens_per_sec.to_bits(), direct.tokens_per_sec().to_bits());
    assert_eq!(util, direct.utilization(&cfg));
}
