//! Golden parity: `ShardedBackend` against the frozen numbers of the
//! retired divide-and-ceil multi-device model.
//!
//! The sharding layer replaced a standalone (TP, PP) throughput function.
//! Its `f64::to_bits()` at every point below were recorded before it was
//! deleted, and the sharded path must keep reproducing them. Two limits
//! pin it:
//!
//! * **Ideal fabric** — a zero-latency, infinite-bandwidth interconnect
//!   on a device whose own link config is free: both terms the fabric
//!   prices vanish, so every `(tp, pp)` point must reproduce the frozen
//!   number *bit-for-bit* (same style as the `run_lockstep` parity of
//!   the event-driven fleet).
//! * **PCIe fabric** — `PcieLink::from_config` uses the exact
//!   device-internal ring-all-reduce and stage-hop formulas, so on the
//!   serial device modes (whose collective term is one ring per layer
//!   pair) the default link reproduces the frozen numbers bit-for-bit too.

use neupims_core::backend::{Backend, TransPimBackend};
use neupims_core::device::{Device, DeviceMode};
use neupims_core::interconnect::{IdealLink, PcieLink};
use neupims_core::sharding::{ClusterSpec, ShardedBackend};
use neupims_pim::calibrate;
use neupims_types::{config::InterconnectConfig, LlmConfig, NeuPimsConfig};
use neupims_workload::{warm_seq_lens, Dataset, DEFAULT_SEED};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Frozen `(tp, pp, f64 bits)` points. Every table walks the same grid:
/// pure TP, pure PP and mixed deployments.
type Frozen = [(u32, u32, u64); 6];

/// Table 2 hardware with a free board-level link: the zero-cost limit in
/// which the device prices no collectives itself.
fn zero_link_config() -> NeuPimsConfig {
    let mut cfg = NeuPimsConfig::table2();
    cfg.interconnect = InterconnectConfig {
        link_bytes_per_cycle: u64::MAX,
        link_latency: 0,
    };
    cfg
}

fn assert_parity<B: Backend>(
    b: &B,
    model: &LlmConfig,
    seqs: &[u64],
    ideal: bool,
    tag: &str,
    frozen: &Frozen,
) {
    for &(tp, pp, bits) in frozen {
        let fabric: Box<dyn neupims_core::Interconnect> = if ideal {
            Box::new(IdealLink)
        } else {
            Box::new(PcieLink::from_config(b.interconnect()))
        };
        let sharded = ShardedBackend::new(b, ClusterSpec::new(tp, pp), fabric).unwrap();
        let ours = sharded.cluster_tokens_per_sec(model, 1, seqs).unwrap();
        assert_eq!(
            ours.to_bits(),
            bits,
            "{tag} (tp{tp},pp{pp}): sharded {ours} != frozen {}",
            f64::from_bits(bits)
        );
    }
}

#[test]
fn ideal_fabric_matches_legacy_bit_for_bit_on_every_device_mode() {
    const NPU_ONLY: Frozen = [
        (1, 1, 0x409ab9c0b8ffce82), // 1710.4382057161133
        (2, 1, 0x40aaa7a20a599f44), // 3411.816485214893
        (8, 1, 0x40ca3ce8bddd0d64), // 13433.818294173754
        (1, 4, 0x40a5478ce0c5314e), // 2723.7751523611723
        (4, 2, 0x40c1becfbb8661e0), // 9085.62291030673
        (8, 4, 0x40d51fa07da1fc61), // 21630.50766801497
    ];
    const NAIVE: Frozen = [
        (1, 1, 0x40a3374af8536e63), // 2459.646425826287
        (2, 1, 0x40b324c89c52bf99), // 4900.783635303284
        (8, 1, 0x40d2b893c71264c9), // 19170.30902538149
        (1, 4, 0x40a548e8871587d5), // 2724.4541556099234
        (4, 2, 0x40c51c0fcb18e62f), // 10808.12338553657
        (8, 4, 0x40d52161ccdcae99), // 21637.52812878657
    ];
    const NEUPIMS: Frozen = [
        (1, 1, 0x40a54a9bcf15403d), // 2725.304314292995
        (2, 1, 0x40b6bf91b3c0b793), // 5823.569149060076
        (8, 1, 0x40d79b89a31d95a3), // 24174.150580783968
        (1, 4, 0x40a70702871c9afc), // 2947.5049370707693
        (4, 2, 0x40c8adb7d17c449b), // 12635.436080487727
        (8, 4, 0x40d8b24fba56d96e), // 25289.245748245557
    ];
    let cfg = zero_link_config();
    let cal = calibrate(&cfg).unwrap();
    let model = LlmConfig::gpt3_7b();
    let seqs: Vec<u64> = (0..64u64).map(|i| 100 + (i * 37) % 500).collect();
    for (mode, frozen) in [
        (DeviceMode::NpuOnly, &NPU_ONLY),
        (DeviceMode::NaiveNpuPim, &NAIVE),
        (DeviceMode::neupims(), &NEUPIMS),
    ] {
        let b = Device::new(cfg, cal, mode);
        assert_parity(&b, &model, &seqs, true, mode.label(), frozen);
    }
}

#[test]
fn ideal_fabric_matches_legacy_on_transpim() {
    const TRANSPIM: Frozen = [
        (1, 1, 0x4040118bc5a9f037), // 32.13707800672312
        (2, 1, 0x4050118bc5a9f037), // 64.27415601344624
        (8, 1, 0x4070118bc5a9f037), // 257.096624053785
        (1, 4, 0x4060118bc37f7665), // 128.54831099410072
        (4, 2, 0x4070118bc37f7665), // 257.09662198820143
        (8, 4, 0x4090118bb22ba7ea), // 1028.386421854137
    ];
    let cfg = zero_link_config();
    let cal = calibrate(&cfg).unwrap();
    let b = TransPimBackend::new(cfg, cal);
    let model = LlmConfig::gpt3_7b();
    assert_parity(&b, &model, &[300u64; 32], true, "transpim", &TRANSPIM);
}

#[test]
fn pcie_fabric_matches_legacy_on_serial_modes() {
    // The serial device modes price exactly one ring all-reduce pair per
    // layer, which PcieLink::from_config reproduces formula-for-formula.
    // (The interleaved NeuPIMs mode prices collectives per sub-batch, so
    // only the ideal limit is exact there.)
    const NPU_ONLY: Frozen = [
        (1, 1, 0x409540653e3578f3), // 1360.0988701205322
        (2, 1, 0x40a4e6179a6a02bd), // 2675.0460999611228
        (8, 1, 0x40c1cb4157cf8cf1), // 9110.51049227125
        (1, 4, 0x40a04f30e65bba86), // 2087.5955074944677
        (4, 2, 0x40ba359bb04cf37f), // 6709.608158883521
        (8, 4, 0x40cb608f4e3ef1ed), // 14017.119575374725
    ];
    const NAIVE: Frozen = [
        (1, 1, 0x409c46eb58f0966a), // 1809.7298314658933
        (2, 1, 0x40aba81d25285b7a), // 3540.05692411534
        (8, 1, 0x40c678ae4594dbf0), // 11505.361498458282
        (1, 4, 0x409fb9e784caad4f), // 2030.4760924976615
        (4, 2, 0x40bd766d17f99055), // 7542.42614707731
        (8, 4, 0x40cabf3062592894), // 13694.378001351179
    ];
    let model = LlmConfig::gpt3_7b();
    let seqs: Vec<u64> = (0..48u64).map(|i| 80 + (i * 53) % 700).collect();
    let b = Device::table2_mode(DeviceMode::NpuOnly).unwrap();
    assert_parity(&b, &model, &seqs, false, "npu-only/pcie", &NPU_ONLY);
    let b = Device::table2_mode(DeviceMode::NaiveNpuPim).unwrap();
    assert_parity(&b, &model, &seqs, false, "naive/pcie", &NAIVE);
}

#[test]
fn parity_survives_remainder_micro_batches() {
    // 17 requests at PP=2: the 9-request representative micro-batch sets
    // the beat while every request counts in the numerator.
    const FROZEN: [(usize, u64); 3] = [
        (17, 0x40aae3371f350177), // 3441.607659965924
        (18, 0x40ac781c3f29109c), // 3644.0551693756843
        (31, 0x40b8735e6db9c2c2), // 6259.368861780213
    ];
    let cfg = zero_link_config();
    let cal = calibrate(&cfg).unwrap();
    let b = Device::new(cfg, cal, DeviceMode::neupims());
    let model = LlmConfig::gpt3_7b();
    let sharded = ShardedBackend::new(&b, ClusterSpec::new(4, 2), Box::new(IdealLink)).unwrap();
    for (n, bits) in FROZEN {
        let ours = sharded
            .cluster_tokens_per_sec(&model, 1, &vec![300u64; n])
            .unwrap();
        assert_eq!(ours.to_bits(), bits, "{n} requests");
    }
}

#[test]
fn simulation_level_parity_shares_the_sampler() {
    // The retired harness-level path drew its warm batch from the shared
    // sampler under DEFAULT_SEED ^ 0x14 (as Figure 14 still does), so the
    // ideal limit is bit-for-bit at the harness level, not just the
    // backend level.
    const FROZEN: [(u32, u32, u64); 3] = [
        (4, 1, 0x40c7bd53f2986319), // 12154.655840919864
        (4, 2, 0x40c802cf77b09da9), // 12293.620840146048
        (8, 4, 0x40d81e22a3d483df), // 24696.541249398022
    ];
    let cfg = zero_link_config();
    let cal = calibrate(&cfg).unwrap();
    let device = Device::new(cfg, cal, DeviceMode::neupims());
    let model = LlmConfig::gpt3_7b();
    let mut rng = StdRng::seed_from_u64(DEFAULT_SEED ^ 0x14);
    let seqs = warm_seq_lens(&mut rng, Dataset::ShareGpt, 64);
    for (tp, pp, bits) in FROZEN {
        let sharded =
            ShardedBackend::new(&device, ClusterSpec::new(tp, pp), Box::new(IdealLink)).unwrap();
        let ours = sharded.cluster_tokens_per_sec(&model, 1, &seqs).unwrap();
        assert_eq!(ours.to_bits(), bits, "(tp{tp},pp{pp})");
    }
}

#[test]
fn real_fabric_never_beats_the_free_limit() {
    // Not a parity point but the sanity bound that makes parity
    // meaningful: charging for the link can only slow the cluster down.
    let b = Device::table2().unwrap();
    let model = LlmConfig::gpt3_30b();
    let seqs = vec![300u64; 64];
    for (tp, pp) in [(4u32, 1u32), (8, 1), (4, 2)] {
        let spec = ClusterSpec::new(tp, pp);
        let free = ShardedBackend::new(&b, spec, Box::new(IdealLink))
            .unwrap()
            .cluster_tokens_per_sec(&model, 1, &seqs)
            .unwrap();
        let priced = ShardedBackend::new(&b, spec, Box::new(PcieLink::from_gbps(16.0)))
            .unwrap()
            .cluster_tokens_per_sec(&model, 1, &seqs)
            .unwrap();
        assert!(
            priced <= free,
            "(tp{tp},pp{pp}): priced {priced} beats free {free}"
        );
    }
}
