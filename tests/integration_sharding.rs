//! Integration tests of multi-chip scaling behavior: TP speedup curves
//! bend where collectives saturate the link, stay near-linear on the
//! infinite link, and the sharded backend serves end-to-end.
//!
//! All assertions are orderings between measured points, never absolute
//! cycle counts — the shapes are the claim, the eval goldens pin values.

use neupims_core::backend::Backend;
use neupims_core::device::Device;
use neupims_core::interconnect::{IdealLink, Interconnect, PcieLink};
use neupims_core::serving::{ServingConfig, ServingSim};
use neupims_core::sharding::{ClusterSpec, ShardedBackend};
use neupims_types::LlmConfig;

const TP_SWEEP: [u32; 4] = [1, 2, 4, 8];

/// Tokens/s of the 30B model at each TP degree over `fabric`.
fn tp_curve(fabric: impl Fn() -> Box<dyn Interconnect>) -> Vec<f64> {
    let b = Device::table2().unwrap();
    let model = LlmConfig::gpt3_30b(); // 56 heads: divisible by 1, 2, 4, 8
    let seqs = vec![376u64; 64];
    TP_SWEEP
        .iter()
        .map(|&tp| {
            ShardedBackend::new(&b, ClusterSpec::new(tp, 1), fabric())
                .unwrap()
                .cluster_tokens_per_sec(&model, 1, &seqs)
                .unwrap()
        })
        .collect()
}

#[test]
fn tp_scaling_bends_when_collectives_saturate_the_link() {
    let ideal = tp_curve(|| Box::new(IdealLink));
    // A starved 2 GB/s link: collectives dominate well before TP=8.
    let tight = tp_curve(|| Box::new(PcieLink::from_gbps(2.0)));

    // The free link scales monotonically.
    for w in ideal.windows(2) {
        assert!(w[1] > w[0], "ideal curve must keep rising: {ideal:?}");
    }

    // Crossover ordering, not absolutes: at every TP degree the priced
    // link's speedup trails the free link's, and the gap widens as the
    // collective term grows with the chip count.
    let speedup = |c: &[f64]| c.iter().map(|&t| t / c[0]).collect::<Vec<_>>();
    let (s_ideal, s_tight) = (speedup(&ideal), speedup(&tight));
    let mut prev_gap = 0.0;
    for (i, &tp) in TP_SWEEP.iter().enumerate().skip(1) {
        assert!(
            s_tight[i] < s_ideal[i],
            "TP={tp}: priced speedup {:.2} must trail ideal {:.2}",
            s_tight[i],
            s_ideal[i]
        );
        let gap = s_ideal[i] - s_tight[i];
        assert!(
            gap >= prev_gap,
            "TP={tp}: the scaling gap must widen ({prev_gap:.2} -> {gap:.2})"
        );
        prev_gap = gap;
    }

    // The bend itself: marginal gain of the last doubling collapses on
    // the tight link (sub-linear) while the ideal link keeps most of it.
    let last_gain_ideal = ideal[3] / ideal[2];
    let last_gain_tight = tight[3] / tight[2];
    assert!(
        last_gain_tight < last_gain_ideal,
        "TP 4->8 gain: tight {last_gain_tight:.3} must bend below ideal {last_gain_ideal:.3}"
    );
}

#[test]
fn faster_links_rank_between_ideal_and_starved() {
    let ideal = tp_curve(|| Box::new(IdealLink));
    let fast = tp_curve(|| Box::new(PcieLink::from_gbps(256.0)));
    let slow = tp_curve(|| Box::new(PcieLink::from_gbps(2.0)));
    for i in 1..TP_SWEEP.len() {
        assert!(
            slow[i] <= fast[i] && fast[i] <= ideal[i],
            "TP={}: {} <= {} <= {} violated",
            TP_SWEEP[i],
            slow[i],
            fast[i],
            ideal[i]
        );
    }
}

#[test]
fn pp_deployment_prices_bubbles_and_hops() {
    let b = Device::table2().unwrap();
    let model = LlmConfig::gpt3_30b(); // 48 layers
    let seqs = vec![376u64; 64];
    let sharded =
        ShardedBackend::new(&b, ClusterSpec::new(4, 2), Box::new(PcieLink::default())).unwrap();
    let (det, _) = sharded
        .decode_detail(&model, 1, model.num_layers, &seqs)
        .unwrap();
    assert!(det.pp_transfer_cycles > 0, "PP must pay the stage hop");
    // A round is one streaming beat plus the (pp-1)*beat bubble at pp=2.
    let round = sharded
        .decode_iteration(&model, 1, model.num_layers, &seqs)
        .unwrap();
    assert_eq!(round.total_cycles(), 2 * det.beat);
}

#[test]
fn sharded_backend_serves_end_to_end() {
    // The wrapper is a Backend, so the serving loop runs it unchanged:
    // device-internal TP is 1 and the full layer stack is resident — the
    // sharding spec supplies the parallelism.
    let inner = Device::table2().unwrap();
    let model = LlmConfig::gpt3_7b();
    let sharded =
        ShardedBackend::new(inner, ClusterSpec::new(4, 1), Box::new(PcieLink::default())).unwrap();
    let cfg = ServingConfig {
        max_batch: 8,
        tp: 1,
        layers: model.num_layers,
        target_completions: 0,
        slo: None,
    };
    let mut sim = ServingSim::new(sharded, model, cfg);
    for i in 0..24u32 {
        sim.submit(i, 64 + (i % 5) * 16, 1 + (i % 3), i as u64 * 10_000)
            .unwrap();
    }
    let out = sim.run().unwrap();
    assert_eq!(out.completed + out.dropped, out.submitted);
    assert_eq!(out.submitted, 24);
    assert!(out.tokens > 0);
}

#[test]
fn sharding_tp_beats_pp_like_the_legacy_model() {
    // Figure 14's conclusion must survive the priced link: at 8 devices,
    // TP-heavy beats PP-heavy on the default PCIe fabric too.
    let b = Device::table2().unwrap();
    let model = LlmConfig::gpt3_7b();
    let seqs = vec![376u64; 256];
    let thr = |tp, pp| {
        ShardedBackend::new(&b, ClusterSpec::new(tp, pp), Box::new(PcieLink::default()))
            .unwrap()
            .cluster_tokens_per_sec(&model, 1, &seqs)
            .unwrap()
    };
    let tp8 = thr(8, 1);
    let tp4pp2 = thr(4, 2);
    assert!(
        tp8 > tp4pp2,
        "TP-heavy {tp8:.0} must beat PP-heavy {tp4pp2:.0}"
    );
}

#[test]
fn composed_tp_multiplies_the_degrees() {
    // Caller-level TP (the device-internal degree) composes with the
    // sharding spec: wrapping tp=2 sharding over a tp=2 call prices the
    // same group as a flat tp=4 call.
    let b = Device::table2().unwrap();
    let model = LlmConfig::gpt3_7b();
    let seqs = vec![300u64; 32];
    let sharded = ShardedBackend::new(&b, ClusterSpec::new(2, 1), Box::new(IdealLink)).unwrap();
    let composed = sharded
        .decode_iteration(&model, 2, model.num_layers, &seqs)
        .unwrap();
    let flat = Backend::decode_iteration(&b, &model, 4, model.num_layers, &seqs).unwrap();
    // Ideal fabric: composed pricing = flat compute minus its internal
    // collectives (re-priced to zero).
    let flat_compute = flat.total_cycles() - flat.breakdown.allreduce_cycles;
    assert_eq!(composed.total_cycles(), flat_compute.max(1));
}
