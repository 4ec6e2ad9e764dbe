//! Interleaved execution of MEM transactions and PIM command streams.
//!
//! [`DuetDriver`] implements the Section 5.3 controller policy on one
//! channel: **PIM commands take priority on the C/A bus**, regular
//! read/write commands fill the remaining slots, and refresh is coordinated
//! at PIM tile boundaries (the contract `PIM_HEADER` makes possible).
//!
//! On dual-row-buffer channels both streams proceed concurrently; on
//! conventional single-row-buffer channels the driver degrades to the
//! "blocked" mode of existing PIM parts — the MEM stream waits for the PIM
//! work to drain — which is exactly the baseline behavior the paper starts
//! from (Figure 6).

use neupims_dram::{CompletedTx, Controller};
use neupims_types::{Cycle, SimError};

use crate::engine::{GemvEngine, PimStats};

/// Results of a duet run.
#[derive(Debug, Clone)]
pub struct DuetOutcome {
    /// Completed MEM transactions in completion order.
    pub mem_done: Vec<CompletedTx>,
    /// PIM engine counters.
    pub pim: PimStats,
    /// Cycle at which the last MEM data burst finished (0 if none).
    pub mem_finished_at: Cycle,
    /// Cycle at which all work (MEM and PIM) finished.
    pub finished_at: Cycle,
}

/// Drives one channel's MEM controller and PIM engine to completion under
/// the PIM-priority interleaving policy.
#[derive(Debug)]
pub struct DuetDriver {
    ctrl: Controller,
    engine: GemvEngine,
}

impl DuetDriver {
    /// Creates a driver; the controller's channel carries both streams.
    pub fn new(mut ctrl: Controller, engine: GemvEngine) -> Self {
        ctrl.set_auto_refresh(false);
        Self { ctrl, engine }
    }

    /// Read access to the MEM controller.
    pub fn controller(&self) -> &Controller {
        &self.ctrl
    }

    /// Read access to the PIM engine.
    pub fn engine(&self) -> &GemvEngine {
        &self.engine
    }

    /// Runs both streams to completion.
    ///
    /// In blocked mode (single-row-buffer channel) the MEM stream starts
    /// only after the PIM stream drains.
    ///
    /// # Errors
    ///
    /// Propagates structural scheduling errors from either stream.
    pub fn run(&mut self) -> Result<DuetOutcome, SimError> {
        let dual = self.ctrl.channel().is_dual();
        let mut mem_done = Vec::new();

        if !dual {
            // Blocked mode: PIM first, then MEM (strict serialization).
            self.engine.run_to_completion(self.ctrl.channel_mut())?;
            self.ctrl.set_auto_refresh(true);
            mem_done = self.ctrl.run_until_drained()?;
        } else {
            loop {
                let pim_idle = self.engine.is_idle();
                let mem_idle = self.ctrl.is_drained();
                if pim_idle && mem_idle {
                    break;
                }

                // Coordinated refresh at PIM-safe points.
                let ch_now = self.ctrl.channel().ca_free_at(0);
                if self.ctrl.channel().refresh_overdue(ch_now) && self.engine.at_safe_point() {
                    self.ctrl.channel_mut().close_rows_and_refresh(0)?;
                    continue;
                }

                if mem_idle {
                    // Only PIM work remains.
                    self.engine.advance(self.ctrl.channel_mut(), Cycle::MAX)?;
                    continue;
                }

                // PIM priority: let the engine issue everything it legally
                // can before the MEM candidate's issue slot. When it issues
                // nothing, `step` issues the peeked candidate unscanned.
                let mem_at = self.ctrl.peek_next_issue()?.unwrap_or(Cycle::MAX);
                if !pim_idle {
                    self.engine.advance(self.ctrl.channel_mut(), mem_at)?;
                }
                if let Some(tx) = self.ctrl.step()? {
                    mem_done.push(tx);
                }
            }
        }

        let pim = *self.engine.stats();
        let mem_finished_at = mem_done.iter().map(|t| t.finished_at).max().unwrap_or(0);
        Ok(DuetOutcome {
            finished_at: mem_finished_at.max(pim.last_done),
            mem_done,
            pim,
            mem_finished_at,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CommandMode, GemvJob};
    use neupims_dram::MemRequest;
    use neupims_types::{config::PimConfig, BankId, HbmTiming, MemConfig};

    fn mem_stream(ctrl: &mut Controller, pages: u32) {
        // Sequential pages interleaved across banks, high row numbers so the
        // MEM rows never collide with the PIM tile rows.
        for p in 0..pages {
            let bank = BankId::new(p % 32);
            let row = 20_000 + p / 32;
            ctrl.enqueue(MemRequest::read(bank, row, 0, 16));
        }
    }

    fn duet_full(dual: bool, pages: u32, tiles: u32) -> (DuetOutcome, neupims_dram::ChannelStats) {
        let mem = MemConfig::table2();
        let mut ctrl = Controller::new(mem, HbmTiming::table2(), dual);
        mem_stream(&mut ctrl, pages);
        let mut engine = GemvEngine::new(PimConfig::newton(), CommandMode::Composite, true);
        if tiles > 0 {
            engine.enqueue(GemvJob::synthetic(&mem, tiles, 1, 0));
        }
        let mut driver = DuetDriver::new(ctrl, engine);
        let out = driver.run().unwrap();
        let stats = *driver.controller().channel().stats();
        (out, stats)
    }

    fn duet(dual: bool, pages: u32, tiles: u32) -> DuetOutcome {
        duet_full(dual, pages, tiles).0
    }

    #[test]
    fn dual_mode_overlaps_mem_and_pim() {
        let solo_mem = duet(true, 64, 0);
        let solo_pim = duet(true, 0, 16);
        let both = duet(true, 64, 16);
        // Concurrent execution must beat serialization by a clear margin.
        let serial = solo_mem.finished_at + solo_pim.finished_at;
        assert!(
            both.finished_at < serial * 9 / 10,
            "no overlap: both={} serial={}",
            both.finished_at,
            serial
        );
        assert_eq!(both.mem_done.len(), 64);
        assert_eq!(both.pim.tiles_done, 16);
    }

    #[test]
    fn blocked_mode_serializes() {
        let solo_mem = duet(false, 64, 0);
        let solo_pim = duet(false, 0, 16);
        let both = duet(false, 64, 16);
        // Blocked mode must cost at least roughly the sum of the parts.
        assert!(
            both.finished_at >= solo_mem.finished_at.max(solo_pim.finished_at),
            "blocked mode too fast: {} vs mem {} pim {}",
            both.finished_at,
            solo_mem.finished_at,
            solo_pim.finished_at
        );
        assert!(both.finished_at * 10 >= (solo_mem.finished_at + solo_pim.finished_at) * 9);
    }

    #[test]
    fn pim_priority_slows_mem_only_slightly() {
        // The paper's argument for PIM priority: PIM C/A traffic is sparse,
        // so the MEM stream sees only minor degradation in dual mode.
        let solo = duet(true, 128, 0);
        let both = duet(true, 128, 8);
        let slowdown = both.mem_finished_at as f64 / solo.mem_finished_at as f64;
        assert!(slowdown >= 1.0, "slowdown {slowdown}");
        assert!(slowdown < 1.6, "MEM degraded too much: {slowdown}");
    }

    #[test]
    fn long_duets_refresh() {
        let (out, stats) = duet_full(true, 1024, 48);
        assert_eq!(out.mem_done.len(), 1024);
        assert_eq!(out.pim.tiles_done, 48);
        // Spans several tREFI windows; coordinated refresh must have fired
        // (the channel counter includes duet-issued refreshes).
        assert!(stats.refreshes >= 1, "no refresh in a long duet");
    }
}
