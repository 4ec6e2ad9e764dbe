//! FR-FCFS transaction scheduler over a [`DramChannel`].
//!
//! The controller models the MEM-side of the NeuPIMs memory controller: it
//! accepts read/write transactions (multi-burst, page-aligned streams from
//! the NPU), schedules row activates and column bursts first-ready
//! first-come-first-served with an open-page policy, and interleaves
//! all-bank refreshes on the tREFI cadence.
//!
//! The scheduler is event-driven: [`Controller::step`] issues exactly one
//! DRAM command at its earliest legal cycle instead of ticking empty cycles,
//! which keeps multi-megabyte calibration streams fast while remaining
//! cycle-exact.

use std::collections::VecDeque;

use neupims_types::{BankId, Cycle, HbmTiming, MemConfig, SimError};

use crate::bank::Slot;
use crate::channel::DramChannel;
use crate::command::DramCommand;

/// A read or write transaction: `cols` consecutive bursts of one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Target bank.
    pub bank: BankId,
    /// Target row.
    pub row: u32,
    /// First burst index.
    pub col_start: u32,
    /// Number of bursts (each moves `burst_bytes`).
    pub cols: u32,
    /// Write (true) or read (false).
    pub is_write: bool,
}

impl MemRequest {
    /// Convenience read-transaction constructor.
    pub fn read(bank: BankId, row: u32, col_start: u32, cols: u32) -> Self {
        Self {
            bank,
            row,
            col_start,
            cols,
            is_write: false,
        }
    }

    /// Convenience write-transaction constructor.
    pub fn write(bank: BankId, row: u32, col_start: u32, cols: u32) -> Self {
        Self {
            bank,
            row,
            col_start,
            cols,
            is_write: true,
        }
    }
}

/// A finished transaction with its data-completion cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedTx {
    /// Id assigned by [`Controller::enqueue`] in arrival order.
    pub id: u64,
    /// Cycle at which the last data burst completed.
    pub finished_at: Cycle,
    /// Whether the transaction was a write.
    pub is_write: bool,
    /// Bytes moved.
    pub bytes: u64,
}

#[derive(Debug, Clone)]
struct InFlight {
    id: u64,
    req: MemRequest,
    cols_done: u32,
    last_data_at: Cycle,
    counted_hit: bool,
}

/// Event-driven FR-FCFS memory controller for one channel.
#[derive(Debug, Clone)]
pub struct Controller {
    channel: DramChannel,
    queue: VecDeque<InFlight>,
    next_id: u64,
    now: Cycle,
    auto_refresh: bool,
}

impl Controller {
    /// Creates a controller over a fresh channel.
    pub fn new(mem: MemConfig, timing: HbmTiming, dual: bool) -> Self {
        Self::over(DramChannel::new(mem, timing, dual))
    }

    /// Creates a controller over an existing channel (shared with PIM logic
    /// in higher layers).
    pub fn over(channel: DramChannel) -> Self {
        Self {
            channel,
            queue: VecDeque::new(),
            next_id: 0,
            now: 0,
            auto_refresh: true,
        }
    }

    /// Enables or disables autonomous refresh. The MEM+PIM duet driver
    /// disables it and coordinates refresh at PIM tile boundaries instead
    /// (the `PIM_HEADER` contract of Section 5.2).
    pub fn set_auto_refresh(&mut self, on: bool) {
        self.auto_refresh = on;
    }

    /// The underlying channel (stats, storage, timing inspection).
    pub fn channel(&self) -> &DramChannel {
        &self.channel
    }

    /// Mutable access to the underlying channel.
    pub fn channel_mut(&mut self) -> &mut DramChannel {
        &mut self.channel
    }

    /// Current controller time (issue cycle of the latest command).
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Number of transactions still queued.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Enqueues a transaction, returning its id (arrival order).
    pub fn enqueue(&mut self, req: MemRequest) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.queue.push_back(InFlight {
            id,
            req,
            cols_done: 0,
            last_data_at: 0,
            counted_hit: false,
        });
        id
    }

    /// True when no work remains.
    pub fn is_drained(&self) -> bool {
        self.queue.is_empty()
    }

    fn refresh(&mut self) -> Result<(), SimError> {
        // Close every open row, then refresh.
        for slot in [Slot::Mem, Slot::Pim] {
            let any_open = (0..self.channel.mem_config().banks_per_channel)
                .any(|b| self.channel.bank(BankId::new(b)).open_row(slot).is_some());
            if any_open {
                let info = self
                    .channel
                    .issue(DramCommand::PrechargeAll { slot }, self.now)?;
                self.now = info.issued_at;
            }
        }
        let info = self.channel.issue(DramCommand::RefreshAll, self.now)?;
        self.now = info.issued_at;
        Ok(())
    }

    /// Picks the next command FR-FCFS would issue, without issuing it.
    ///
    /// Returns `(queue index, command, earliest issue cycle, row hit)`.
    fn pick_candidate(&self) -> Result<Option<(usize, DramCommand, Cycle, bool)>, SimError> {
        let mut best: Option<(usize, DramCommand, Cycle, bool)> = None;
        for (i, fl) in self.queue.iter().enumerate() {
            let bank_state = self.channel.bank(fl.req.bank);
            let open = bank_state.open_row(Slot::Mem);
            let (cmd, is_hit) = if open == Some(fl.req.row) {
                let col = fl.req.col_start + fl.cols_done;
                let cmd = if fl.req.is_write {
                    DramCommand::Write {
                        bank: fl.req.bank,
                        col,
                    }
                } else {
                    DramCommand::Read {
                        bank: fl.req.bank,
                        col,
                    }
                };
                (cmd, true)
            } else if open.is_some() {
                (
                    DramCommand::Precharge {
                        bank: fl.req.bank,
                        slot: Slot::Mem,
                    },
                    false,
                )
            } else {
                (
                    DramCommand::Activate {
                        bank: fl.req.bank,
                        row: fl.req.row,
                        slot: Slot::Mem,
                    },
                    false,
                )
            };
            let at = self.channel.earliest_issue(&cmd)?.max(self.now);
            let better = match &best {
                None => true,
                Some((_, _, best_at, best_hit)) => {
                    (is_hit && !best_hit && at <= *best_at)
                        || (is_hit == *best_hit && at < *best_at)
                }
            };
            if better {
                best = Some((i, cmd, at, is_hit));
            }
            // The oldest transaction is always a valid fallback; scanning the
            // whole queue keeps FR (first-ready) exact but on long queues the
            // head suffices for FCFS ordering.
            if i >= 31 {
                break;
            }
        }
        Ok(best)
    }

    /// Earliest cycle at which the controller could issue its next command,
    /// or `None` when drained. Used by the duet driver to give PIM commands
    /// C/A priority.
    pub fn peek_next_issue(&self) -> Result<Option<Cycle>, SimError> {
        Ok(self.pick_candidate()?.map(|(_, _, at, _)| at))
    }

    /// Issues one command for the best-candidate transaction.
    ///
    /// Returns a completed transaction when the issued command was its final
    /// burst; returns `Ok(None)` while work remains unfinished.
    ///
    /// # Errors
    ///
    /// Propagates structural scheduling errors from the channel (these
    /// indicate controller bugs, not legal runtime outcomes).
    ///
    /// # Panics
    ///
    /// Panics if called while [`Self::is_drained`] — callers drive the loop.
    pub fn step(&mut self) -> Result<Option<CompletedTx>, SimError> {
        assert!(!self.queue.is_empty(), "step() on a drained controller");

        // Refresh has priority once due.
        if self.auto_refresh && self.channel.refresh_overdue(self.now) {
            self.refresh()?;
        }

        let (idx, cmd, at, _) = self
            .pick_candidate()?
            .expect("non-empty queue yields a candidate");

        // If the refresh becomes due before this command would issue, do the
        // refresh first and retry on the next step.
        if self.auto_refresh
            && self.channel.refresh_overdue(at)
            && !matches!(cmd, DramCommand::Precharge { .. })
        {
            self.refresh()?;
            return Ok(None);
        }

        let info = self.channel.issue_at(cmd, at)?;
        self.now = info.issued_at;

        let burst_bytes = self.channel.burst_bytes();
        let fl = &mut self.queue[idx];
        match cmd {
            DramCommand::Read { .. } | DramCommand::Write { .. } => {
                if !fl.counted_hit && fl.cols_done == 0 {
                    // First burst issued straight from an open row: a hit.
                    self.channel.stats_row_hit();
                    fl.counted_hit = true;
                }
                fl.cols_done += 1;
                fl.last_data_at = info.done_at;
                if fl.cols_done == fl.req.cols {
                    let done = CompletedTx {
                        id: fl.id,
                        finished_at: fl.last_data_at,
                        is_write: fl.req.is_write,
                        bytes: fl.req.cols as u64 * burst_bytes,
                    };
                    self.queue.remove(idx);
                    return Ok(Some(done));
                }
            }
            DramCommand::Activate { .. } if !fl.counted_hit => {
                self.channel.stats_row_miss();
                fl.counted_hit = true;
            }
            _ => {}
        }
        Ok(None)
    }

    /// Runs until every queued transaction completes.
    ///
    /// # Errors
    ///
    /// Propagates scheduling errors from [`Self::step`].
    pub fn run_until_drained(&mut self) -> Result<Vec<CompletedTx>, SimError> {
        let mut done = Vec::new();
        while !self.is_drained() {
            if let Some(tx) = self.step()? {
                done.push(tx);
            }
        }
        Ok(done)
    }
}

impl DramChannel {
    /// Records a row-buffer hit at the controller level.
    fn stats_row_hit(&mut self) {
        self.stats_mut().row_hits += 1;
    }

    /// Records a row-buffer miss at the controller level.
    fn stats_row_miss(&mut self) {
        self.stats_mut().row_misses += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neupims_types::{HbmTiming, MemConfig};

    fn ctrl() -> Controller {
        Controller::new(MemConfig::table2(), HbmTiming::table2(), false)
    }

    #[test]
    fn single_read_latency() {
        let mut c = ctrl();
        c.enqueue(MemRequest::read(BankId::new(0), 3, 0, 1));
        let done = c.run_until_drained().unwrap();
        assert_eq!(done.len(), 1);
        let t = HbmTiming::table2();
        // ACT at 0, RD at tRCD, data at tRCD + tCL + tBL.
        assert_eq!(done[0].finished_at, t.t_rcd + t.t_cl + t.t_bl);
        assert_eq!(done[0].bytes, 64);
    }

    #[test]
    fn row_hits_skip_activation() {
        let mut c = ctrl();
        c.enqueue(MemRequest::read(BankId::new(0), 3, 0, 4));
        c.enqueue(MemRequest::read(BankId::new(0), 3, 4, 4));
        let done = c.run_until_drained().unwrap();
        assert_eq!(done.len(), 2);
        let s = c.channel().stats();
        assert_eq!(s.acts, 1, "second tx must reuse the open row");
        assert_eq!(s.row_hits, 1);
        assert_eq!(s.row_misses, 1);
    }

    #[test]
    fn row_conflict_forces_precharge() {
        let mut c = ctrl();
        c.enqueue(MemRequest::read(BankId::new(0), 3, 0, 1));
        c.enqueue(MemRequest::read(BankId::new(0), 9, 0, 1));
        c.run_until_drained().unwrap();
        let s = c.channel().stats();
        assert_eq!(s.acts, 2);
        assert_eq!(s.precharges, 1);
        assert_eq!(s.row_misses, 2);
    }

    #[test]
    fn bank_parallel_reads_overlap() {
        // Streaming one page from each of 8 banks should take far less than
        // 8x the single-bank latency thanks to bank-level parallelism.
        let mut solo = ctrl();
        solo.enqueue(MemRequest::read(BankId::new(0), 0, 0, 16));
        let t_solo = solo.run_until_drained().unwrap()[0].finished_at;

        let mut par = ctrl();
        for b in 0..8 {
            par.enqueue(MemRequest::read(BankId::new(b), 0, 0, 16));
        }
        let done = par.run_until_drained().unwrap();
        let t_par = done.iter().map(|d| d.finished_at).max().unwrap();
        // 8 pages of 16 bursts x tBL=2 cycles: data-bus-bound is 256 cycles.
        assert!(t_par < 2 * t_solo + 256, "t_par={t_par} t_solo={t_solo}");
        // The data bus must be the limiter, not serialization of banks.
        assert!(t_par < 8 * t_solo, "no bank parallelism: {t_par}");
    }

    #[test]
    fn refresh_fires_on_long_streams() {
        let mut c = ctrl();
        // Enough sequential work to cross several tREFI windows:
        // each page read is ~16 bursts * 2 cycles = 32 cycles of data.
        for row in 0..40 {
            for bank in 0..8 {
                c.enqueue(MemRequest::read(BankId::new(bank), row, 0, 16));
            }
        }
        c.run_until_drained().unwrap();
        assert!(
            c.channel().stats().refreshes >= 1,
            "long stream must refresh: now={} refreshes={}",
            c.now(),
            c.channel().stats().refreshes
        );
    }

    #[test]
    fn writes_complete_and_count() {
        let mut c = ctrl();
        c.enqueue(MemRequest::write(BankId::new(1), 2, 0, 8));
        let done = c.run_until_drained().unwrap();
        assert_eq!(done.len(), 1);
        assert!(done[0].is_write);
        assert_eq!(c.channel().stats().writes, 8);
        assert_eq!(c.channel().stats().bytes_written, 8 * 64);
    }

    #[test]
    #[should_panic(expected = "step() on a drained controller")]
    fn step_on_drained_panics() {
        let mut c = ctrl();
        let _ = c.step();
    }
}
