//! Golden pins of `Device::decode_iteration` and its MHA pricing budget.
//!
//! Every `DeviceMode` prices fixed batches under both cost models, and the
//! result must match the recorded `total_cycles` and per-channel PIM busy
//! time bit for bit, whatever the pricing code's internal structure. The
//! lookup-count test pins that an iteration prices each request exactly
//! once: GMLBP balancing and both sub-batch interleaving arms share one
//! estimate per request.

use neupims_core::device::{Device, DeviceMode, SbiPolicy};
use neupims_pim::{calibrate, PimCalibration};
use neupims_sched::{CostModelKind, TraceMemo};
use neupims_types::{LlmConfig, NeuPimsConfig};

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
