//! Golden pins of `Device::decode_iteration` and its MHA pricing budget.
//!
//! Every `DeviceMode` prices fixed batches under both cost models, and the
//! result must match the recorded `total_cycles` and per-channel PIM busy
//! time bit for bit, whatever the pricing code's internal structure. A
//! wider pin digests every `IterationBreakdown` field of every mode, both
//! cost models, two models at three tensor-parallel degrees, plus the GPU
//! roofline's decode and both backends' prefill pricing. The lookup-count
//! test pins that an iteration prices each request exactly once: GMLBP
//! balancing and both sub-batch interleaving arms share one estimate per
//! request. The warm-batch pin holds the mean tokens/s and every mean
//! utilization of each backend's warm batches bit for bit, unsharded and
//! sharded.

use neupims_core::backend::{Backend, GpuRooflineBackend, ALL_BACKEND_NAMES};
use neupims_core::device::{Device, DeviceMode, SbiPolicy};
use neupims_core::metrics::IterationBreakdown;
use neupims_core::system::SystemSpec;
use neupims_pim::{calibrate, PimCalibration};
use neupims_sched::{CostModelKind, TraceMemo};
use neupims_types::{LlmConfig, NeuPimsConfig};
use neupims_workload::Dataset;

use CostModelKind::{Analytic, TraceDriven};

const MODES: [DeviceMode; 8] = [
    DeviceMode::NpuOnly,
    DeviceMode::NaiveNpuPim,
    DeviceMode::NeuPims {
        gmlbp: false,
        sbi: SbiPolicy::Off,
    },
    DeviceMode::NeuPims {
        gmlbp: false,
        sbi: SbiPolicy::Always,
    },
    DeviceMode::NeuPims {
        gmlbp: false,
        sbi: SbiPolicy::Adaptive,
    },
    DeviceMode::NeuPims {
        gmlbp: true,
        sbi: SbiPolicy::Off,
    },
    DeviceMode::NeuPims {
        gmlbp: true,
        sbi: SbiPolicy::Always,
    },
    DeviceMode::NeuPims {
        gmlbp: true,
        sbi: SbiPolicy::Adaptive,
    },
];

/// One request; a pair that Algorithm 3 splits one-and-one; a skewed
/// batch; and a large batch where interleaving wins.
fn batches() -> [Vec<u64>; 4] {
    [
        vec![1500],
        vec![700, 20],
        (0..37u64).map(|i| (i * 977 + 13) % 3000 + 1).collect(),
        (0..300u64).map(|i| (i * 131 + 7) % 1200 + 16).collect(),
    ]
}

/// `(mode index, cost model, batch index, total_cycles, sum of pim_busy,
/// sum of (channel + 1) * pim_busy)`. The weighted sum catches a load
/// landing on a different channel with the same total.
const GOLDEN: [(usize, CostModelKind, usize, u64, u64, u64); 64] = [
    (0, Analytic, 0, 5332992, 0, 0),
    (0, Analytic, 1, 5189024, 0, 0),
    (0, Analytic, 2, 16694912, 0, 0),
    (0, Analytic, 3, 44274400, 0, 0),
    (0, TraceDriven, 0, 5332992, 0, 0),
    (0, TraceDriven, 1, 5189024, 0, 0),
    (0, TraceDriven, 2, 16694912, 0, 0),
    (0, TraceDriven, 3, 44274400, 0, 0),
    (1, Analytic, 0, 6926720, 1816364, 1816364),
    (1, Analytic, 1, 6129536, 1370380, 1703456),
    (1, Analytic, 2, 10770848, 74063384, 1059870712),
    (1, Analytic, 3, 20972800, 273379236, 4380179276),
    (1, TraceDriven, 0, 6943776, 1833408, 1833408),
    (1, TraceDriven, 1, 6129888, 1366848, 1696064),
    (1, TraceDriven, 2, 10833856, 74567456, 1068076064),
    (1, TraceDriven, 3, 21000608, 273192992, 4377363232),
    (2, Analytic, 0, 5349600, 1819356, 1819356),
    (2, Analytic, 1, 5223232, 1372616, 1706227),
    (2, Analytic, 2, 8988320, 74185281, 1061615098),
    (2, Analytic, 3, 19765792, 273827440, 4387360852),
    (2, TraceDriven, 0, 5352480, 1836000, 1836000),
    (2, TraceDriven, 1, 5223232, 1368544, 1698208),
    (2, TraceDriven, 2, 9050976, 74677504, 1069645440),
    (2, TraceDriven, 3, 19789088, 273542880, 4382980192),
    (3, Analytic, 0, 5349600, 1819356, 1819356),
    (3, Analytic, 1, 8198734, 1372616, 1706227),
    (3, Analytic, 2, 8432234, 74185281, 1061615098),
    (3, Analytic, 3, 12987824, 273827440, 4387360852),
    (3, TraceDriven, 0, 5352480, 1836000, 1836000),
    (3, TraceDriven, 1, 8198734, 1368544, 1698208),
    (3, TraceDriven, 2, 8434132, 74677504, 1069645440),
    (3, TraceDriven, 3, 13010918, 273542880, 4382980192),
    (4, Analytic, 0, 5349600, 1819356, 1819356),
    (4, Analytic, 1, 5223232, 1372616, 1706227),
    (4, Analytic, 2, 8432234, 74185281, 1061615098),
    (4, Analytic, 3, 12987824, 273827440, 4387360852),
    (4, TraceDriven, 0, 5352480, 1836000, 1836000),
    (4, TraceDriven, 1, 5223232, 1368544, 1698208),
    (4, TraceDriven, 2, 8434132, 74677504, 1069645440),
    (4, TraceDriven, 3, 13010918, 273542880, 4382980192),
    (5, Analytic, 0, 5349600, 1819356, 1819356),
    (5, Analytic, 1, 5223232, 1372616, 1706227),
    (5, Analytic, 2, 7337600, 74185280, 993058276),
    (5, Analytic, 3, 15509376, 273827444, 4541093277),
    (5, TraceDriven, 0, 5352480, 1836000, 1836000),
    (5, TraceDriven, 1, 5223232, 1368544, 1698208),
    (5, TraceDriven, 2, 7398336, 74677504, 997097376),
    (5, TraceDriven, 3, 15499904, 273542880, 4532136896),
    (6, Analytic, 0, 5349600, 1819356, 1819356),
    (6, Analytic, 1, 8198734, 1372616, 1706227),
    (6, Analytic, 2, 8432234, 74185280, 993058276),
    (6, Analytic, 3, 9022540, 273827444, 4541093277),
    (6, TraceDriven, 0, 5352480, 1836000, 1836000),
    (6, TraceDriven, 1, 8198734, 1368544, 1698208),
    (6, TraceDriven, 2, 8434132, 74677504, 997097376),
    (6, TraceDriven, 3, 9041355, 273542880, 4532136896),
    (7, Analytic, 0, 5349600, 1819356, 1819356),
    (7, Analytic, 1, 5223232, 1372616, 1706227),
    (7, Analytic, 2, 7337600, 74185280, 993058276),
    (7, Analytic, 3, 9022540, 273827444, 4541093277),
    (7, TraceDriven, 0, 5352480, 1836000, 1836000),
    (7, TraceDriven, 1, 5223232, 1368544, 1698208),
    (7, TraceDriven, 2, 7398336, 74677504, 997097376),
    (7, TraceDriven, 3, 9041355, 273542880, 4532136896),
];

fn setup() -> (NeuPimsConfig, PimCalibration, LlmConfig) {
    let cfg = NeuPimsConfig::table2();
    let cal = calibrate(&cfg).unwrap();
    (cfg, cal, LlmConfig::gpt3_7b())
}

#[test]
fn decode_iteration_matches_recorded_goldens() {
    let (cfg, cal, model) = setup();
    let batches = batches();
    for &(mode, kind, batch, total, busy_sum, busy_weighted) in &GOLDEN {
        let device = Device::new(cfg, cal, MODES[mode]).with_cost_model(kind);
        let b = device
            .decode_iteration(&model, 4, model.num_layers, &batches[batch])
            .unwrap();
        let sum: u64 = b.pim_busy.iter().sum();
        let weighted: u64 = b
            .pim_busy
            .iter()
            .enumerate()
            .map(|(ch, &busy)| (ch as u64 + 1) * busy)
            .sum();
        let case = format!("{} / {kind} / batch {batch}", MODES[mode].label());
        assert_eq!(b.total_cycles, total, "{case}: total_cycles");
        assert_eq!(sum, busy_sum, "{case}: pim_busy sum");
        assert_eq!(weighted, busy_weighted, "{case}: pim_busy by channel");
    }
}

/// The wide-pin batches: the four above plus a single one-token context,
/// a uniform batch (every GMLBP choice is a tie), an odd trio, giants
/// among small requests, alternating short/long, and a Figure 13-size
/// batch.
fn wide_batches() -> Vec<Vec<u64>> {
    let mut all = batches().to_vec();
    all.push(vec![1]);
    all.push(vec![64; 32]);
    all.push(vec![4096, 9, 333]);
    all.push([vec![4096; 3], vec![32; 30]].concat());
    all.push(
        (0..128u64)
            .map(|i| if i % 2 == 0 { 48 } else { 1024 })
            .collect(),
    );
    all.push(vec![376; 512]);
    all
}

/// Prompt sets for the prefill pin.
fn prompt_sets() -> [Vec<u64>; 4] {
    [vec![1], vec![512], vec![64; 8], vec![2048, 100, 7]]
}

const MODELS: [fn() -> LlmConfig; 2] = [LlmConfig::gpt3_7b, LlmConfig::gpt3_13b];
const TPS: [u32; 3] = [1, 2, 4];

/// Folds `words` into an FNV-1a digest.
fn fold(h: &mut u64, words: impl IntoIterator<Item = u64>) {
    for word in words {
        for byte in word.to_le_bytes() {
            *h ^= u64::from(byte);
            *h = h.wrapping_mul(0x0100_0000_01B3);
        }
    }
}

/// Folds every field of `b`; the exhaustive destructuring makes a new
/// field a compile error here rather than an unpinned counter.
fn fold_breakdown(h: &mut u64, b: &IterationBreakdown) {
    let IterationBreakdown {
        total_cycles,
        npu_flops,
        npu_busy,
        vector_busy,
        pim_busy,
        bus_bytes,
        pim_inbank_bytes,
        pim_tiles,
        pim_gwrites,
        allreduce_cycles,
        tokens,
    } = b;
    fold(
        h,
        [
            *total_cycles,
            *npu_flops,
            *npu_busy,
            *vector_busy,
            pim_busy.len() as u64,
        ],
    );
    fold(h, pim_busy.iter().copied());
    fold(
        h,
        [
            *bus_bytes,
            *pim_inbank_bytes,
            *pim_tiles,
            *pim_gwrites,
            *allreduce_cycles,
            *tokens,
        ],
    );
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Backend index 8 in the decode table: the GPU roofline (its pricing has
/// no MHA cost model, so it is pinned under `Analytic` only).
const GPU: usize = MODES.len();

/// `(backend, cost model, model, tp, digest of every breakdown field over
/// every wide batch)`, backend indexing `MODES` or [`GPU`].
const DECODE_DIGESTS: [(usize, CostModelKind, usize, u32, u64); 102] = [
    (0, Analytic, 0, 1, 0xc35ba76a46ece02f),
    (0, TraceDriven, 0, 1, 0xc35ba76a46ece02f),
    (1, Analytic, 0, 1, 0x2c659b7b80f2f0bb),
    (1, TraceDriven, 0, 1, 0xeb0f2cc4e734b89e),
    (2, Analytic, 0, 1, 0x18488158733d9224),
    (2, TraceDriven, 0, 1, 0x4efb88cdf6739aa5),
    (3, Analytic, 0, 1, 0x6e1a81160b6042c5),
    (3, TraceDriven, 0, 1, 0x900d01ceb25e07df),
    (4, Analytic, 0, 1, 0xefec77bb27fe6bc4),
    (4, TraceDriven, 0, 1, 0x2f25ee901b8a95b4),
    (5, Analytic, 0, 1, 0xaa049648faba28a2),
    (5, TraceDriven, 0, 1, 0x42312c290d47211f),
    (6, Analytic, 0, 1, 0x1e008193bd5c5037),
    (6, TraceDriven, 0, 1, 0xf03877b1ccde6798),
    (7, Analytic, 0, 1, 0xcce4a948ed3e5092),
    (7, TraceDriven, 0, 1, 0x05511f3612346c4c),
    (8, Analytic, 0, 1, 0x51059216714386de),
    (0, Analytic, 0, 2, 0xc11236ff7e755ac5),
    (0, TraceDriven, 0, 2, 0xc11236ff7e755ac5),
    (1, Analytic, 0, 2, 0xc01635d1db875ad6),
    (1, TraceDriven, 0, 2, 0x379b154a0fd40567),
    (2, Analytic, 0, 2, 0xc8d4796cf04f4fa8),
    (2, TraceDriven, 0, 2, 0xb2687ba745e5bdc2),
    (3, Analytic, 0, 2, 0x7bc0475588165b1e),
    (3, TraceDriven, 0, 2, 0x1fb7a01c726c59f7),
    (4, Analytic, 0, 2, 0xc82941c97e7ed63d),
    (4, TraceDriven, 0, 2, 0x8b035d2da61f5ffe),
    (5, Analytic, 0, 2, 0xbdc3f4a3c10ba9b1),
    (5, TraceDriven, 0, 2, 0x3dee2c03e2168694),
    (6, Analytic, 0, 2, 0xca1c7f080b379286),
    (6, TraceDriven, 0, 2, 0x4d8029d6a89c0e58),
    (7, Analytic, 0, 2, 0x593122d4a31685d7),
    (7, TraceDriven, 0, 2, 0x61170b1eb37a9d68),
    (8, Analytic, 0, 2, 0xa06c70896260004c),
    (0, Analytic, 0, 4, 0x2a8f06abf0f72daa),
    (0, TraceDriven, 0, 4, 0x2a8f06abf0f72daa),
    (1, Analytic, 0, 4, 0x0b6ea2515130e980),
    (1, TraceDriven, 0, 4, 0xf85ba82c2d1fdeff),
    (2, Analytic, 0, 4, 0xefa927ca1bd666ef),
    (2, TraceDriven, 0, 4, 0x5f1ee2a90edc2fd1),
    (3, Analytic, 0, 4, 0x340d4393b5763b6f),
    (3, TraceDriven, 0, 4, 0x03afc7b0efa122a6),
    (4, Analytic, 0, 4, 0xbf22d002d0056914),
    (4, TraceDriven, 0, 4, 0xe785f523a5ee52a4),
    (5, Analytic, 0, 4, 0x5017c3a85b84fec0),
    (5, TraceDriven, 0, 4, 0x60dcc726e44df609),
    (6, Analytic, 0, 4, 0xd26a8c9bf38a4b37),
    (6, TraceDriven, 0, 4, 0x35bd3f9dc75a7be2),
    (7, Analytic, 0, 4, 0x75a7cbaf5422b984),
    (7, TraceDriven, 0, 4, 0xd3004e3a175ab531),
    (8, Analytic, 0, 4, 0xc19da1ab2e7b80bf),
    (0, Analytic, 1, 1, 0x1415726b67faddff),
    (0, TraceDriven, 1, 1, 0x1415726b67faddff),
    (1, Analytic, 1, 1, 0x26d8672b51b96be4),
    (1, TraceDriven, 1, 1, 0x229ac0dcc83d334b),
    (2, Analytic, 1, 1, 0x48ffcf9cce9b7c5e),
    (2, TraceDriven, 1, 1, 0xb67647e9c4c0b3cb),
    (3, Analytic, 1, 1, 0xd3fb5a297c86d9a8),
    (3, TraceDriven, 1, 1, 0xc8d5ae4cee3d20eb),
    (4, Analytic, 1, 1, 0x016a951c36b810d4),
    (4, TraceDriven, 1, 1, 0xe57df4807d28bf67),
    (5, Analytic, 1, 1, 0xc76051dd104143cd),
    (5, TraceDriven, 1, 1, 0xf95620b0d74f2a1b),
    (6, Analytic, 1, 1, 0x5ffe6631f5564dc5),
    (6, TraceDriven, 1, 1, 0xe0ea49b27e6dfc00),
    (7, Analytic, 1, 1, 0x8634fc9baa0839f3),
    (7, TraceDriven, 1, 1, 0xee3c230722fab923),
    (8, Analytic, 1, 1, 0x0559ffb8bcfe4418),
    (0, Analytic, 1, 2, 0xeded95399223a281),
    (0, TraceDriven, 1, 2, 0xeded95399223a281),
    (1, Analytic, 1, 2, 0x96432f1f6cfb698c),
    (1, TraceDriven, 1, 2, 0x1e45c9b2c13c9c44),
    (2, Analytic, 1, 2, 0xdbe5bb4b83a26cfa),
    (2, TraceDriven, 1, 2, 0x5f72d001050cd345),
    (3, Analytic, 1, 2, 0x4cd9a27e529a6820),
    (3, TraceDriven, 1, 2, 0x716533f8a1027d16),
    (4, Analytic, 1, 2, 0x4f20db9275394353),
    (4, TraceDriven, 1, 2, 0x284c281edf2c2f9f),
    (5, Analytic, 1, 2, 0x4d69161e66b822eb),
    (5, TraceDriven, 1, 2, 0x8f2b6ef782fc646e),
    (6, Analytic, 1, 2, 0xb20330fe3c3a85fe),
    (6, TraceDriven, 1, 2, 0x86818f65b2136347),
    (7, Analytic, 1, 2, 0x4303ece122d16509),
    (7, TraceDriven, 1, 2, 0xd93097c5e02a95f5),
    (8, Analytic, 1, 2, 0x52c720994d4ad233),
    (0, Analytic, 1, 4, 0x2381965ad6186a66),
    (0, TraceDriven, 1, 4, 0x2381965ad6186a66),
    (1, Analytic, 1, 4, 0xa24756b72c2d1616),
    (1, TraceDriven, 1, 4, 0x782c7dc1399dc585),
    (2, Analytic, 1, 4, 0x0ae4f85bc0dad6ba),
    (2, TraceDriven, 1, 4, 0x8c56e40a7fcd689b),
    (3, Analytic, 1, 4, 0x02b535160cfee348),
    (3, TraceDriven, 1, 4, 0x3243b8b0756214a6),
    (4, Analytic, 1, 4, 0xa8f467a87d281825),
    (4, TraceDriven, 1, 4, 0x9f56339513278472),
    (5, Analytic, 1, 4, 0x2d1c5a650b5ad07a),
    (5, TraceDriven, 1, 4, 0x448e9c9b93923d27),
    (6, Analytic, 1, 4, 0x1765224049f76b7d),
    (6, TraceDriven, 1, 4, 0x3d1fe36158112b84),
    (7, Analytic, 1, 4, 0x1933fe8efe919324),
    (7, TraceDriven, 1, 4, 0xa3d1a138efebdba0),
    (8, Analytic, 1, 4, 0x7b6e9f63a85a51b4),
];

/// `(backend, model, tp, digest of the prefill cycles of every prompt
/// set)`, backend 0 the NeuPIMs device and 1 the GPU roofline.
const PREFILL_DIGESTS: [(usize, usize, u32, u64); 12] = [
    (0, 0, 1, 0xbca41377bfd3374c),
    (1, 0, 1, 0x259f3c379b97e8f4),
    (0, 0, 2, 0x2ec16ce804980166),
    (1, 0, 2, 0x5b5606e816b3f2b9),
    (0, 0, 4, 0x654ab54f978fb3d3),
    (1, 0, 4, 0xa8c4c93ce245953f),
    (0, 1, 1, 0xd0cef94553f36fdc),
    (1, 1, 1, 0xa9bb56ccec52272f),
    (0, 1, 2, 0xed4b76bfb568449e),
    (1, 1, 2, 0x7fd15f275ae5c5df),
    (0, 1, 4, 0x8c7c608c95c28e97),
    (1, 1, 4, 0xc27104dc069e225e),
];

#[test]
fn every_breakdown_field_matches_recorded_digests() {
    let (cfg, cal, _) = setup();
    let batches = wide_batches();
    let gpu = GpuRooflineBackend::a100();
    let memo = TraceMemo::new();
    let mut decode = Vec::new();
    for (mi, model) in MODELS.iter().map(|m| m()).enumerate() {
        for tp in TPS {
            for (backend, mode) in MODES.iter().enumerate() {
                for kind in [Analytic, TraceDriven] {
                    let mut device = Device::new(cfg, cal, *mode).with_cost_model(kind);
                    device.attach_trace_memo(&memo);
                    let mut h = FNV_OFFSET;
                    for seqs in &batches {
                        let b = device
                            .decode_iteration(&model, tp, model.num_layers, seqs)
                            .unwrap();
                        fold_breakdown(&mut h, &b);
                    }
                    decode.push((backend, kind, mi, tp, h));
                }
            }
            let mut h = FNV_OFFSET;
            for seqs in &batches {
                let b = gpu
                    .decode_iteration(&model, tp, model.num_layers, seqs)
                    .unwrap()
                    .into_breakdown();
                fold_breakdown(&mut h, &b);
            }
            decode.push((GPU, Analytic, mi, tp, h));
        }
    }
    let device = Device::new(cfg, cal, DeviceMode::neupims());
    let mut prefill = Vec::new();
    for (mi, model) in MODELS.iter().map(|m| m()).enumerate() {
        for tp in TPS {
            for (backend, price) in [&device as &dyn Backend, &gpu as &dyn Backend]
                .into_iter()
                .enumerate()
            {
                let mut h = FNV_OFFSET;
                for prompts in prompt_sets() {
                    let cycles = price
                        .prefill_cycles(&model, tp, model.num_layers, &prompts)
                        .unwrap();
                    fold(&mut h, [cycles]);
                }
                prefill.push((backend, mi, tp, h));
            }
        }
    }
    for (got, want) in decode.iter().zip(&DECODE_DIGESTS) {
        assert_eq!(
            got, want,
            "decode digest (backend, kind, model, tp, digest)"
        );
    }
    assert_eq!(decode.len(), DECODE_DIGESTS.len());
    for (got, want) in prefill.iter().zip(&PREFILL_DIGESTS) {
        assert_eq!(got, want, "prefill digest (backend, model, tp, digest)");
    }
    assert_eq!(prefill.len(), PREFILL_DIGESTS.len());
}

#[test]
fn each_request_is_priced_once_per_iteration() {
    let (cfg, cal, model) = setup();
    for mode in MODES {
        let memo = TraceMemo::new();
        let mut device = Device::new(cfg, cal, mode).with_cost_model(TraceDriven);
        let pim = device.attach_trace_memo(&memo);
        for seqs in batches() {
            // The first pass warms the memo; the second counts lookups.
            device
                .decode_iteration(&model, 4, model.num_layers, &seqs)
                .unwrap();
            let before = memo.snapshot();
            device
                .decode_iteration(&model, 4, model.num_layers, &seqs)
                .unwrap();
            let after = memo.snapshot();
            let lookups = (after.memo_hits + after.replays) - (before.memo_hits + before.replays);
            let expected = if pim { seqs.len() as u64 } else { 0 };
            assert_eq!(
                lookups,
                expected,
                "{}: {} requests",
                mode.label(),
                seqs.len()
            );
            assert_eq!(after.replays, before.replays, "a warm memo never replays");
        }
    }
}

/// The warm-batch systems: every backend name unsharded on GPT3-7B and
/// GPT3-30B (whose PP 2 halves the resident layers), then NeuPIMs on
/// GPT3-30B as a TP 2 chip group over the ideal fabric.
fn warm_systems() -> Vec<SystemSpec> {
    let mut specs = Vec::new();
    for model in [LlmConfig::gpt3_7b(), LlmConfig::gpt3_30b()] {
        for name in ALL_BACKEND_NAMES {
            specs.push(SystemSpec {
                backend: name.into(),
                model: model.clone(),
                ..SystemSpec::default()
            });
        }
    }
    specs.push(SystemSpec {
        model: LlmConfig::gpt3_30b(),
        tp: Some(2),
        interconnect: "ideal".into(),
        ..SystemSpec::default()
    });
    specs
}

/// Mean tokens/s and every mean `Utilization` field of one system over 2
/// ShareGPT warm batches of 64 under seed 42.
fn warm_means(spec: &SystemSpec) -> [f64; 6] {
    let (tokens_per_sec, u) = spec.warm_means(Dataset::ShareGpt, 64, 42, 2, None).unwrap();
    [
        tokens_per_sec,
        u.npu,
        u.pim,
        u.bandwidth,
        u.npu_stage,
        u.pim_stage,
    ]
}

/// `to_bits()` of [`warm_means`] for each of [`warm_systems`], in order.
const WARM_BITS: [[u64; 6]; 17] = [
    [
        4665340331968083215,
        4591666378005934512,
        0,
        4603615702552524973,
        4607182418800017408,
        0,
    ],
    [
        4665072576192623296,
        4591389181008669962,
        0,
        4603455544893010504,
        4601532448358407150,
        0,
    ],
    [
        4665247860579260759,
        4591530338641440085,
        4593053170293899109,
        4600633958188154746,
        4601532448358407149,
        4600675365664265106,
    ],
    [
        4666774732020514958,
        4593601900291546158,
        4594637559472976500,
        4602706723736188412,
        4601532448358407150,
        4602020061469588627,
    ],
    [
        4638811798435421152,
        0,
        4584664420396245580,
        0,
        0,
        4607182418800017408,
    ],
    [
        4666604034739633005,
        4593326973076957114,
        4594464973317241480,
        4602455744822815213,
        4601532448358407150,
        4600675275371581880,
    ],
    [
        4666774732020514958,
        4593601900291546158,
        4594637559472976500,
        4602706723736188412,
        4601532448358407150,
        4602020061469588627,
    ],
    [
        4665196240710332563,
        4591488768832276884,
        4593043568617843636,
        4603057202131611070,
        4597028848731036654,
        4602020061469588628,
    ],
    [
        4661300293362291919,
        4593175765678506864,
        0,
        4603784057147715934,
        4607182418800017408,
        0,
    ],
    [
        4661185707303919680,
        4592957767365462882,
        0,
        4603674327879184545,
        4601629896644859644,
        0,
    ],
    [
        4661185864205076132,
        4592957912474561042,
        4590697849194555538,
        4602032600364299498,
        4601629896644859644,
        4600578500473119172,
    ],
    [
        4661807601426594854,
        4593871394822834361,
        4591517798601885439,
        4602916862576291194,
        4601629896644859644,
        4601857081910319746,
    ],
    [
        4633397850979055218,
        0,
        4584664420474483638,
        0,
        0,
        4607182418800017408,
    ],
    [
        4661627245191314272,
        4593704593435001128,
        4591274693626946711,
        4602748703744015441,
        4601629896644859644,
        4600578404993692718,
    ],
    [
        4661807601426594854,
        4593871394822834361,
        4591517798601885439,
        4602916862576291194,
        4601629896644859644,
        4601857081910319746,
    ],
    [
        4658182696290628304,
        4590180450551790080,
        4588220262392903960,
        4603113360927559490,
        4597126297017489148,
        4601857081910319746,
    ],
    [
        4652913735082516094,
        4593976210088889517,
        4591394905949586562,
        4603022025080414015,
        4601653885421730642,
        4602020061245135138,
    ],
];

#[test]
fn warm_batch_means_match_recorded_bits() {
    let systems = warm_systems();
    assert_eq!(systems.len(), WARM_BITS.len());
    for (spec, want) in systems.iter().zip(&WARM_BITS) {
        assert_eq!(
            &warm_means(spec).map(f64::to_bits),
            want,
            "{} on {} at tp {:?}",
            spec.backend,
            spec.model.name,
            spec.tp
        );
    }
}
