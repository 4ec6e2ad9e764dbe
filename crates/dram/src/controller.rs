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
//! cycle-exact. Each pick scans the reorder window only as far as a later
//! transaction could still win (see [`Controller::step`]), and a pick made
//! by [`Controller::peek_next_issue`] is issued by the next `step` while the
//! channel and the queue are unchanged.

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

/// FR-FCFS reorder window: a pick considers only the oldest `WINDOW`
/// queued transactions; younger ones wait until older ones complete.
const WINDOW: usize = 32;

/// The command FR-FCFS picked for the transaction at queue index `idx`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pick {
    idx: usize,
    cmd: DramCommand,
    /// Earliest legal issue cycle, never before the controller's `now`.
    at: Cycle,
    /// Whether `cmd` is a column command to an already-open row.
    hit: bool,
}

impl Pick {
    /// FR-FCFS order: a row hit beats a non-hit issuing no earlier, and
    /// within the same kind the earlier issue wins. Ties keep the older
    /// transaction, the one already picked.
    fn displaced_by(&self, hit: bool, at: Cycle) -> bool {
        (hit && !self.hit && at <= self.at) || (hit == self.hit && at < self.at)
    }
}

/// Event-driven FR-FCFS memory controller for one channel.
#[derive(Debug, Clone)]
pub struct Controller {
    channel: DramChannel,
    queue: VecDeque<InFlight>,
    next_id: u64,
    now: Cycle,
    auto_refresh: bool,
    /// The pick of the last [`Self::peek_next_issue`] with the channel's
    /// issue count when it was made. `enqueue` clears it; `step` takes it.
    peeked: Option<(u64, Pick)>,
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
            peeked: None,
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
        self.peeked = None;
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
        let (_, info) = self.channel.close_rows_and_refresh(self.now)?;
        self.now = info.issued_at;
        Ok(())
    }

    /// The command FR-FCFS would issue for `fl` next, and whether it is a
    /// row hit.
    fn command_for(&self, fl: &InFlight) -> (DramCommand, bool) {
        let bank = fl.req.bank;
        match self.channel.bank(bank).open_row(Slot::Mem) {
            Some(row) if row == fl.req.row => {
                let col = fl.req.col_start + fl.cols_done;
                let cmd = if fl.req.is_write {
                    DramCommand::Write { bank, col }
                } else {
                    DramCommand::Read { bank, col }
                };
                (cmd, true)
            }
            Some(_) => (
                DramCommand::Precharge {
                    bank,
                    slot: Slot::Mem,
                },
                false,
            ),
            None => (
                DramCommand::Activate {
                    bank,
                    row: fl.req.row,
                    slot: Slot::Mem,
                },
                false,
            ),
        }
    }

    /// Picks the next command FR-FCFS would issue, without issuing it.
    ///
    /// The pick is the one a scan of the whole window makes (see
    /// [`Pick::displaced_by`]), but the scan skips what cannot win and stops
    /// once nothing can. Displacement needs a strictly earlier issue within
    /// a kind and an issue no later for a hit over a non-hit, so the earlier
    /// a candidate issues the likelier it displaces. Two floors bound how
    /// early a candidate can issue:
    ///
    /// * no command before `F = max(C/A bus free, refresh end, now)`
    ///   ([`DramChannel::command_floor`]);
    /// * no column command (a hit) before `H = max(F, channel-wide column
    ///   spacing)` ([`DramChannel::column_floor`]).
    ///
    /// A candidate that could not displace the best even at its floor needs
    /// no timing check: once the best is a hit no ACT/PRE can win, and a
    /// hit cannot beat a non-hit issuing before `H`. When neither kind can
    /// win at its floor the scan ends, e.g. at the first hit issuing at
    /// `H`. Each step is exact, so the pick is the full scan's.
    fn pick_candidate(&self) -> Result<Option<Pick>, SimError> {
        let cmd_floor = self.channel.command_floor().max(self.now);
        let col_floor = self.channel.column_floor().max(self.now);
        let floor = |hit: bool| if hit { col_floor } else { cmd_floor };
        let mut best: Option<Pick> = None;
        for (idx, fl) in self.queue.iter().take(WINDOW).enumerate() {
            let (cmd, hit) = self.command_for(fl);
            if best.is_some_and(|b| !b.displaced_by(hit, floor(hit))) {
                continue;
            }
            let at = self.channel.earliest_issue(&cmd)?.max(self.now);
            if best.is_none_or(|b| b.displaced_by(hit, at)) {
                let pick = Pick { idx, cmd, at, hit };
                best = Some(pick);
                if !pick.displaced_by(true, col_floor) && !pick.displaced_by(false, cmd_floor) {
                    break;
                }
            }
        }
        Ok(best)
    }

    /// The reference FR-FCFS pick: every candidate of the window is
    /// evaluated. [`Self::pick_candidate`] must always agree with it.
    #[cfg(any(test, debug_assertions))]
    fn full_window_pick(&self) -> Result<Option<Pick>, SimError> {
        let mut best: Option<Pick> = None;
        for (idx, fl) in self.queue.iter().take(WINDOW).enumerate() {
            let (cmd, hit) = self.command_for(fl);
            let at = self.channel.earliest_issue(&cmd)?.max(self.now);
            if best.is_none_or(|b| b.displaced_by(hit, at)) {
                best = Some(Pick { idx, cmd, at, hit });
            }
        }
        Ok(best)
    }

    /// Earliest cycle at which the controller could issue its next command,
    /// or `None` when drained. Used by the duet driver to give PIM commands
    /// C/A priority.
    ///
    /// The pick is kept: the next [`Self::step`] issues it without a second
    /// scan when the channel's issue count has not moved and nothing was
    /// enqueued. The pick depends only on the channel's timing state, the
    /// queue and `now`, and each of these changes only by an issue or an
    /// enqueue.
    ///
    /// # Errors
    ///
    /// Propagates structural errors of the candidates the scan evaluates
    /// (see [`Self::step`]).
    pub fn peek_next_issue(&mut self) -> Result<Option<Cycle>, SimError> {
        let pick = self.pick_candidate()?;
        self.peeked = pick.map(|p| (self.channel.issue_count(), p));
        Ok(pick.map(|p| p.at))
    }

    /// The pick `step` issues: the peeked one while it is still current,
    /// else a fresh scan. Debug and test builds check it against the
    /// full-window reference.
    fn next_pick(&mut self) -> Result<Pick, SimError> {
        let pick = match self.peeked.take() {
            Some((issued, pick)) if issued == self.channel.issue_count() => pick,
            _ => self
                .pick_candidate()?
                .expect("non-empty queue yields a candidate"),
        };
        #[cfg(any(test, debug_assertions))]
        if let Ok(reference) = self.full_window_pick() {
            assert_eq!(
                Some(pick),
                reference,
                "FR-FCFS pick differs from the full-window scan"
            );
        }
        Ok(pick)
    }

    /// Issues one command for the best-candidate transaction.
    ///
    /// The candidate is the oldest transaction whose next command (a column
    /// burst on an open row, else ACT/PRE) issues first, row hits first,
    /// among the oldest 32 transactions (the reorder window). The scan
    /// stops early when no later transaction can win, and a pick made by
    /// [`Self::peek_next_issue`] is reused while still current; the issued
    /// command and cycle are those of a full scan either way.
    ///
    /// Returns a completed transaction when the issued command was its final
    /// burst; returns `Ok(None)` while work remains unfinished.
    ///
    /// # Errors
    ///
    /// Propagates structural scheduling errors from the channel (these
    /// indicate controller bugs or malformed requests, not legal runtime
    /// outcomes). A transaction's error surfaces when a scan evaluates it:
    /// one behind the window, or behind the point where the scan stopped,
    /// is not evaluated until a later pick reaches it.
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

        let Pick { idx, cmd, at, .. } = self.next_pick()?;

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

    /// One action on a controller whose channel a PIM engine shares.
    #[derive(Debug, Clone)]
    enum Op {
        Enqueue(MemRequest),
        Peek,
        Step,
        /// A PIM-side issue on `bank`: a C/A control slot, a result burst,
        /// or opening/closing a PIM-slot row.
        Pim(u32, u8),
    }

    /// Weighted 4:1:4:1 over enqueue, peek, step and a PIM-side issue.
    fn op() -> impl Strategy<Value = Op> {
        (0u8..10, 0u32..8, 0u32..4, 0u32..16, 1u32..16, any::<bool>()).prop_map(
            |(kind, bank, row, col, cols, is_write)| match kind {
                0..=3 => Op::Enqueue(MemRequest {
                    bank: BankId::new(bank),
                    row,
                    col_start: col,
                    cols: cols.min(16 - col),
                    is_write,
                }),
                4 => Op::Peek,
                5..=8 => Op::Step,
                _ => Op::Pim(bank, (col % 3) as u8),
            },
        )
    }

    fn pim_issue(ch: &mut DramChannel, bank: u32, kind: u8) {
        let bank = BankId::new(bank);
        match kind {
            0 => {
                ch.issue_control(0);
            }
            1 => {
                ch.issue_data_burst(0, true);
            }
            _ => {
                let cmd = match ch.bank(bank).open_row(Slot::Pim) {
                    Some(_) => DramCommand::Precharge {
                        bank,
                        slot: Slot::Pim,
                    },
                    // PIM rows never alias the MEM rows 0..4.
                    None => DramCommand::Activate {
                        bank,
                        row: 100,
                        slot: Slot::Pim,
                    },
                };
                // A single-buffer bank cannot open a PIM row over a MEM one.
                if ch.earliest_issue(&cmd).is_ok() {
                    ch.issue(cmd, 0).unwrap();
                }
            }
        }
    }

    /// Checks the pruned pick against the full-window scan, then steps;
    /// `step` checks the pick it issues (handed off or scanned) itself.
    fn checked_step(c: &mut Controller) {
        assert_eq!(c.pick_candidate().unwrap(), c.full_window_pick().unwrap());
        c.step().unwrap();
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// FR-FCFS pruning and the peek handoff change no pick: over random
        /// streams (banks, rows, column ranges, reads and writes) in both
        /// bank flavours, with and without auto-refresh, with enqueues,
        /// peeks and PIM-side issues interleaved, every pick equals the
        /// full-window scan's.
        #[test]
        fn pruned_and_handed_off_picks_match_the_full_scan(
            ops in prop::collection::vec(op(), 1..200),
            dual in any::<bool>(),
            auto_refresh in any::<bool>(),
            t_refi in 150u64..800,
            peek_while_draining in any::<bool>(),
        ) {
            let mem = MemConfig {
                channels: 1,
                banks_per_channel: 8,
                banks_per_bankgroup: 4,
                capacity_per_channel: 8 * 64 * 1024,
                page_bytes: 1024,
                bus_bytes_per_cycle: 32,
            };
            let timing = HbmTiming { t_refi, t_rfc: 20, ..HbmTiming::table2() };
            let mut c = Controller::new(mem, timing, dual);
            c.set_auto_refresh(auto_refresh);
            for op in ops {
                match op {
                    Op::Enqueue(req) => {
                        c.enqueue(req);
                    }
                    Op::Peek => {
                        c.peek_next_issue().unwrap();
                    }
                    Op::Step if !c.is_drained() => checked_step(&mut c),
                    Op::Step => {}
                    Op::Pim(bank, kind) => pim_issue(c.channel_mut(), bank, kind),
                }
            }
            while !c.is_drained() {
                if peek_while_draining {
                    c.peek_next_issue().unwrap();
                }
                checked_step(&mut c);
            }
        }
    }
}
