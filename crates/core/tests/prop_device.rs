//! Property tests on the device model: monotonicity, conservation, and
//! policy dominance across randomized workloads.

use proptest::prelude::*;

use neupims_core::device::{Device, DeviceMode, SbiPolicy};
use neupims_types::{LlmConfig, NeuPimsConfig};

fn device(mode: DeviceMode) -> Device {
    Device::table2_mode(mode).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Longer contexts never make an iteration faster, in any mode.
    #[test]
    fn iteration_monotone_in_context(
        n in 2usize..96,
        seq in 16u64..2048,
        extra in 1u64..1024,
    ) {
        let model = LlmConfig::gpt3_7b();
        for mode in [DeviceMode::NpuOnly, DeviceMode::NaiveNpuPim, DeviceMode::neupims()] {
            let d = device(mode);
            let t1 = d.decode_iteration(&model, 4, 8, &vec![seq; n]).unwrap().total_cycles;
            let t2 = d.decode_iteration(&model, 4, 8, &vec![seq + extra; n]).unwrap().total_cycles;
            prop_assert!(t2 >= t1, "{}: seq {} -> {} made it faster ({} -> {})",
                mode.label(), seq, seq + extra, t1, t2);
        }
    }

    /// Utilizations stay in [0, 1] and PIM-less modes charge no PIM time,
    /// for arbitrary mixed batches.
    #[test]
    fn utilization_bounds(
        seqs in prop::collection::vec(1u64..4096, 1..128),
    ) {
        let cfg = NeuPimsConfig::table2();
        let model = LlmConfig::gpt3_13b();
        for mode in [DeviceMode::NpuOnly, DeviceMode::NaiveNpuPim, DeviceMode::neupims()] {
            let b = device(mode).decode_iteration(&model, 4, 10, &seqs).unwrap();
            let u = b.utilization(&cfg);
            prop_assert!((0.0..=1.0).contains(&u.npu));
            prop_assert!((0.0..=1.0).contains(&u.pim));
            prop_assert!((0.0..=1.0).contains(&u.bandwidth));
            prop_assert_eq!(b.tokens, seqs.len() as u64);
            if !mode.uses_pim() {
                prop_assert_eq!(u.pim, 0.0);
            }
        }
    }

    /// Adaptive SBI dominates both fixed policies on arbitrary batches
    /// (it is defined as their minimum through the same estimates).
    #[test]
    fn adaptive_dominates(
        seqs in prop::collection::vec(8u64..3000, 2..160),
    ) {
        let model = LlmConfig::gpt3_7b();
        let t = |sbi| {
            device(DeviceMode::NeuPims { gmlbp: true, sbi })
                .decode_iteration(&model, 4, 16, &seqs)
                .unwrap()
                .total_cycles
        };
        let adaptive = t(SbiPolicy::Adaptive);
        prop_assert!(adaptive <= t(SbiPolicy::Off));
        prop_assert!(adaptive <= t(SbiPolicy::Always));
    }

    /// Layer count scales total time exactly linearly in the serial modes
    /// and near-linearly under SBI (fill/drain amortizes).
    #[test]
    fn layers_scale_time(
        n in 4usize..64,
        seq in 32u64..1024,
    ) {
        let model = LlmConfig::gpt3_7b();
        let d = device(DeviceMode::NaiveNpuPim);
        let seqs = vec![seq; n];
        let t8 = d.decode_iteration(&model, 4, 8, &seqs).unwrap().total_cycles;
        let t16 = d.decode_iteration(&model, 4, 16, &seqs).unwrap().total_cycles;
        prop_assert_eq!(t16, 2 * t8, "serial modes are layer-linear");
    }
}
