//! Property test: the MEM+PIM duet loop serves every transaction and tile
//! under random mixes.
//!
//! The duet driver peeks the FR-FCFS controller's next MEM command, lets
//! the PIM engine issue ahead of it, then steps the controller, which
//! reuses the peeked pick when the engine issued nothing. Debug builds
//! check every pick `step` issues against a full scan of the controller's
//! window, so under debug assertions this test also holds the pruned pick
//! and the peek handoff to that reference through PIM issues, coordinated
//! refreshes and both bank flavours.

use proptest::prelude::*;

use neupims_dram::{Controller, MemRequest};
use neupims_pim::{CommandMode, DuetDriver, GemvEngine, GemvJob};
use neupims_types::{config::PimConfig, BankId, HbmTiming, MemConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn duet_runs_serve_every_transaction_and_tile(
        reqs in prop::collection::vec(
            (0u32..32, 0u32..4, 0u32..16, 1u32..16, any::<bool>()),
            0..80,
        ),
        jobs in prop::collection::vec((1u32..6, 0u32..4), 0..3),
        dual in any::<bool>(),
        composite in any::<bool>(),
        use_header in any::<bool>(),
        t_refi in 600u64..4000,
    ) {
        let mem = MemConfig::table2();
        let timing = HbmTiming { t_refi, ..HbmTiming::table2() };
        let mut ctrl = Controller::new(mem, timing, dual);
        for &(bank, row, col, cols, is_write) in &reqs {
            // MEM rows sit far above the PIM jobs' rows.
            ctrl.enqueue(MemRequest {
                bank: BankId::new(bank),
                row: 20_000 + row,
                col_start: col,
                cols: cols.min(16 - col),
                is_write,
            });
        }
        let mode = if composite { CommandMode::Composite } else { CommandMode::FineGrained };
        let mut engine = GemvEngine::new(PimConfig::newton(), mode, use_header);
        let mut row_base = 0;
        for &(tiles, gwrites) in &jobs {
            engine.enqueue(GemvJob::synthetic(&mem, tiles, gwrites, row_base));
            row_base += tiles + gwrites;
        }
        let out = DuetDriver::new(ctrl, engine).run().unwrap();
        prop_assert_eq!(out.mem_done.len(), reqs.len());
        prop_assert_eq!(out.pim.jobs_done, jobs.len() as u64);
        let tiles: u32 = jobs.iter().map(|j| j.0).sum();
        prop_assert_eq!(out.pim.tiles_done, tiles as u64);
    }
}
