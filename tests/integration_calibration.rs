//! Cross-crate integration: the calibration loop from the cycle-accurate
//! substrate into the macro model is self-consistent, and the functional
//! PIM path agrees with the timing path it calibrates.

use neupims_dram::DramChannel;
use neupims_kvcache::KvGeometry;
use neupims_pim::{calibrate, logit_job, CommandMode, GemvEngine, GemvJob};
use neupims_sched::MhaLatencyEstimator;
use neupims_types::{config::PimConfig, HbmTiming, LlmConfig, MemConfig, NeuPimsConfig};

#[test]
fn calibration_is_deterministic() {
    let cfg = NeuPimsConfig::table2();
    let a = calibrate(&cfg).unwrap();
    let b = calibrate(&cfg).unwrap();
    assert_eq!(a, b, "the cycle model must be deterministic");
}

#[test]
fn estimator_tracks_measured_gemv_latency() {
    // Algorithm 1 with calibrated constants should predict the latency of
    // an actual cycle-level logit GEMV within a modest error band.
    let cfg = NeuPimsConfig::table2();
    let cal = calibrate(&cfg).unwrap();
    let model = LlmConfig::gpt3_7b();
    let geo = KvGeometry::with_tp(&model, &cfg.mem, 4);
    let est = MhaLatencyEstimator::new(geo, cal.l_tile, cal.l_gwrite);

    // Sequence lengths whose K pages fill whole 32-bank tiles (the regime
    // L_tile is calibrated for; partial tiles run proportionally faster).
    for seq_len in [128usize, 256, 512, 1024] {
        // Measure: functional logit GEMV for one head at d_head = 128.
        let mut ch = DramChannel::new(cfg.mem, HbmTiming::table2(), true);
        let mut engine = GemvEngine::new(PimConfig::newton(), CommandMode::Composite, true);
        let k: Vec<Vec<f32>> = (0..seq_len).map(|_| vec![0.5; 128]).collect();
        let q = vec![1.0f32; 128];
        let out = logit_job(&mut ch, &mut engine, &k, &q, 0).unwrap();
        let measured = out.stats.span() as f64;

        // Estimate: the logit part of Algorithm 1 for ONE head is
        // (seq/banks-packed) tiles; the functional job packs 4 K-rows per
        // page, so its tile count is seq/4/32 rounded up.
        let pages = (seq_len as u64).div_ceil(4);
        let tiles = pages.div_ceil(32);
        let estimate = cal.l_gwrite + tiles as f64 * cal.l_tile;
        let rel = (measured - estimate).abs() / measured;
        assert!(
            rel < 0.45,
            "seq {seq_len}: measured {measured} vs estimate {estimate}"
        );
        // And the full-MHA estimator is monotone with the measured trend.
        assert!(est.estimate(seq_len as u64) > 0.0);
    }
}

#[test]
fn shared_bandwidth_fraction_is_physical() {
    let cal = calibrate(&NeuPimsConfig::table2()).unwrap();
    // Dual-row-buffer concurrency keeps most MEM bandwidth (Section 5.3's
    // argument for PIM-priority scheduling), but not all of it.
    let f = cal.mem_stream_bw_shared / cal.mem_stream_bw;
    assert!(f > 0.5 && f < 1.0, "shared fraction {f}");
    // In-bank GEMV beats the external bus by the tFAW-paced margin.
    assert!(cal.pim_advantage() > 2.0 && cal.pim_advantage() < 10.0);
}

#[test]
fn composite_commands_pay_off_under_contention() {
    // Figure 9's claim, measured end-to-end: with a concurrent MEM stream,
    // composite PIM_GEMV control finishes the MEM work no later than
    // fine-grained Newton control does.
    use neupims_dram::{Controller, MemRequest};
    use neupims_pim::DuetDriver;
    use neupims_types::BankId;

    let mem = MemConfig::table2();
    let timing = HbmTiming::table2();
    let run = |mode| {
        let mut ctrl = Controller::new(mem, timing, true);
        for p in 0..512u32 {
            ctrl.enqueue(MemRequest::read(
                BankId::new(p % 32),
                20_000 + p / 32,
                0,
                16,
            ));
        }
        let mut e = GemvEngine::new(PimConfig::newton(), mode, true);
        e.enqueue(GemvJob::synthetic(&mem, 64, 1, 0));
        DuetDriver::new(ctrl, e).run().unwrap()
    };
    let fine = run(CommandMode::FineGrained);
    let comp = run(CommandMode::Composite);
    assert!(
        comp.mem_finished_at <= fine.mem_finished_at * 101 / 100,
        "composite {} vs fine {}",
        comp.mem_finished_at,
        fine.mem_finished_at
    );
}
