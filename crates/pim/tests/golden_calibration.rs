//! Pins the exact bits of every [`PimCalibration`] field.
//!
//! Calibration feeds every NeuPIMs price, so a change to the DRAM
//! controller, the channel model or the PIM engine that claims to keep
//! the schedule must keep these bits.

use neupims_pim::{calibrate, PimCalibration};
use neupims_types::NeuPimsConfig;

fn bits(cal: &PimCalibration) -> [u64; 7] {
    [
        cal.l_tile.to_bits(),
        cal.l_tile_fine.to_bits(),
        cal.l_gwrite.to_bits(),
        cal.dot_cycles,
        cal.mem_stream_bw.to_bits(),
        cal.mem_stream_bw_shared.to_bits(),
        cal.pim_stream_bw.to_bits(),
    ]
}

/// A valid configuration unlike Table 2: three banks per bank group (the
/// bank-group index is not a shift), 2 KiB pages, a wider tFAW window,
/// slower same-group column spacing and more frequent refresh.
fn odd_config() -> NeuPimsConfig {
    let mut cfg = NeuPimsConfig::table2();
    cfg.mem.banks_per_channel = 24;
    cfg.mem.banks_per_bankgroup = 3;
    cfg.mem.page_bytes = 2 << 10;
    cfg.timing.t_ccd_l = 4;
    cfg.timing.t_faw = 40;
    cfg.timing.t_refi = 3000;
    cfg
}

#[test]
fn table2_calibration_bits_are_pinned() {
    let cal = calibrate(&NeuPimsConfig::table2()).unwrap();
    assert_eq!(
        bits(&cal),
        [
            0x40724ce000000000, // l_tile 292.8046875
            0x4072450000000000, // l_tile_fine 292.3125
            0x4047800000000000, // l_gwrite 47.0
            32,                 // dot_cycles
            0x4034d21e7a961df3, // mem_stream_bw 20.820777570390373
            0x40313c4c956e49fa, // mem_stream_bw_shared 17.235543574739474
            0x405bfa4a2a5cda8c, // pim_stream_bw 111.91077670161957
        ],
        "{cal:?}"
    );
}

#[test]
fn odd_config_calibration_bits_are_pinned() {
    let cal = calibrate(&odd_config()).unwrap();
    assert_eq!(
        bits(&cal),
        [
            0x40742ee000000000, // l_tile 322.9296875
            0x4074270000000000, // l_tile_fine 322.4375
            0x4062f10000000000, // l_gwrite 151.53125
            64,                 // dot_cycles
            0x4038902a1f383b89, // mem_stream_bw 24.563142729977276
            0x40388385a58bb0fa, // mem_stream_bw_shared 24.51375803623612
            0x4063069bb6400d15, // pim_stream_bw 152.20650780210477
        ],
        "{cal:?}"
    );
}
