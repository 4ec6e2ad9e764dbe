//! Property tests on the sharding layer: collective-cost monotonicity for
//! every `Interconnect` implementation, and the closed-form pipeline
//! bubble of a sharded round.

use proptest::prelude::*;

use neupims_core::backend::{Backend, GpuRooflineBackend};
use neupims_core::interconnect::{interconnect_from_name, INTERCONNECT_NAMES};
use neupims_core::sharding::{ClusterSpec, ShardedBackend};
use neupims_types::LlmConfig;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Collective cost is monotone non-decreasing in message size and in
    /// chip count, for every fabric and both collectives; point-to-point
    /// is monotone in bytes.
    #[test]
    fn collective_cost_is_monotone(
        bytes_a in 0u64..(1 << 28),
        bytes_b in 0u64..(1 << 28),
        chips_a in 1u32..64,
        chips_b in 1u32..64,
        gbps in 1u64..512,
    ) {
        let (b_lo, b_hi) = (bytes_a.min(bytes_b), bytes_a.max(bytes_b));
        let (c_lo, c_hi) = (chips_a.min(chips_b), chips_a.max(chips_b));
        for name in INTERCONNECT_NAMES {
            for fabric in [
                interconnect_from_name(name, None).unwrap(),
                interconnect_from_name(name, Some(gbps as f64)).unwrap(),
            ] {
                prop_assert!(
                    fabric.all_reduce_cycles(b_lo, c_hi) <= fabric.all_reduce_cycles(b_hi, c_hi),
                    "{name}: all-reduce not monotone in bytes ({b_lo} vs {b_hi} @ {c_hi})"
                );
                prop_assert!(
                    fabric.all_reduce_cycles(b_hi, c_lo) <= fabric.all_reduce_cycles(b_hi, c_hi),
                    "{name}: all-reduce not monotone in chips ({c_lo} vs {c_hi} @ {b_hi})"
                );
                prop_assert!(
                    fabric.all_gather_cycles(b_lo, c_hi) <= fabric.all_gather_cycles(b_hi, c_hi),
                    "{name}: all-gather not monotone in bytes"
                );
                prop_assert!(
                    fabric.all_gather_cycles(b_hi, c_lo) <= fabric.all_gather_cycles(b_hi, c_hi),
                    "{name}: all-gather not monotone in chips"
                );
                prop_assert!(
                    fabric.point_to_point_cycles(b_lo) <= fabric.point_to_point_cycles(b_hi),
                    "{name}: point-to-point not monotone in bytes"
                );
                // One chip or zero bytes means nothing to reduce.
                prop_assert_eq!(fabric.all_reduce_cycles(b_hi, 1), 0, "{}", name);
                prop_assert_eq!(fabric.all_reduce_cycles(0, c_hi), 0, "{}", name);
            }
        }
    }

    /// Stages are uniform, so one sharded round is one streaming beat
    /// plus the closed-form fill/drain bubble `(pp - 1) * beat`, on every
    /// fabric and at every batch size, and the beat is the slower of a
    /// stage's compute with its collectives and the inter-stage hop.
    #[test]
    fn uniform_pipeline_bubble_closed_form(
        pp_log2 in 0u32..4,
        tp in 1u32..5,
        seqs in prop::collection::vec(1u64..2048, 1..64),
    ) {
        let model = LlmConfig::gpt3_7b();
        let pp = 1 << pp_log2;
        for name in INTERCONNECT_NAMES {
            let sharded = ShardedBackend::new(
                GpuRooflineBackend::a100(),
                ClusterSpec::new(tp, pp),
                interconnect_from_name(name, None).unwrap(),
            )
            .unwrap();
            let (det, _) = sharded.decode_detail(&model, 1, model.num_layers, &seqs).unwrap();
            let round = sharded
                .decode_iteration(&model, 1, model.num_layers, &seqs)
                .unwrap();
            prop_assert_eq!(
                det.beat,
                (det.stage_compute_cycles + det.collective_cycles)
                    .max(det.pp_transfer_cycles)
                    .max(1)
            );
            prop_assert_eq!(round.total_cycles(), det.beat + (u64::from(pp) - 1) * det.beat);
        }
    }
}
