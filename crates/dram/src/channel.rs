//! Timing-checked command issue for one HBM channel.
//!
//! [`DramChannel`] is the lowest simulation layer: callers (the FR-FCFS
//! controller, the PIM command engine) pick commands, ask for the earliest
//! legal issue cycle, and commit them. Every Table 2 constraint is enforced:
//!
//! | Constraint | Scope | Rule |
//! |---|---|---|
//! | tRP   | slot  | ACT ≥ precharge + tRP |
//! | tRCD  | slot  | RD/WR ≥ ACT + tRCD |
//! | tRAS  | slot  | PRE ≥ ACT + tRAS |
//! | tRTP  | slot  | PRE ≥ RD + tRTP |
//! | tWR   | slot  | PRE ≥ end of write burst + tWR |
//! | tRRD_L| bank group | ACT-to-ACT spacing within a group |
//! | tFAW  | channel | ≤ 4 ACTs in any tFAW window |
//! | tCCD_S/L | channel / bank group | column-to-column spacing |
//! | tREFI/tRFC | channel | refresh cadence and duration |
//! | C/A bus | channel | one command per cycle |
//!
//! Dual-row-buffer banks additionally reject opening a row already owned by
//! the other buffer (the functional hazard of Figure 8(b)); intra-bank
//! ACT-to-ACT spacing across the two buffers is conservatively modeled as
//! tRRD_L.

use std::collections::VecDeque;

use neupims_types::{BankId, ChannelId, Cycle, Divisor, HbmTiming, MemConfig, SimError};

use crate::bank::{BankState, Slot};
use crate::command::{DramCommand, IssueInfo};
use crate::stats::ChannelStats;
use crate::storage::Storage;

/// One HBM channel: banks, channel-level timing state, counters, and the
/// functional data mirror.
#[derive(Debug, Clone)]
pub struct DramChannel {
    id: ChannelId,
    mem: MemConfig,
    timing: HbmTiming,
    /// Bursts per page, fixed by `mem` and `timing`.
    cols_per_page: u32,
    /// Banks per bank group, prepared so a bank's group costs no division.
    bankgroup_size: Divisor,
    banks: Vec<BankState>,
    faw_window: VecDeque<Cycle>,
    next_act_bankgroup: Vec<Cycle>,
    next_col_bankgroup: Vec<Cycle>,
    next_col_any: Cycle,
    next_ca: Cycle,
    refresh_due: Cycle,
    busy_until: Cycle,
    /// Commands issued so far, of every kind.
    issued: u64,
    stats: ChannelStats,
    storage: Storage,
    dual: bool,
}

impl DramChannel {
    /// Creates an idle channel. `dual` selects dual-row-buffer (NeuPIMs)
    /// banks; `false` models conventional single-row-buffer PIM banks.
    pub fn new(mem: MemConfig, timing: HbmTiming, dual: bool) -> Self {
        Self::with_id(ChannelId::new(0), mem, timing, dual)
    }

    /// Creates an idle channel carrying an explicit channel id (used in
    /// error reports when many channels coexist).
    fn with_id(id: ChannelId, mem: MemConfig, timing: HbmTiming, dual: bool) -> Self {
        let banks = (0..mem.banks_per_channel)
            .map(|_| BankState::new(dual))
            .collect();
        let groups = mem.bankgroups() as usize;
        let elems_per_row = mem.page_elems(neupims_types::DataType::Fp16) as usize;
        Self {
            id,
            mem,
            timing,
            cols_per_page: (mem.page_bytes / (mem.bus_bytes_per_cycle * timing.t_bl)) as u32,
            bankgroup_size: Divisor::new(mem.banks_per_bankgroup as u64),
            banks,
            faw_window: VecDeque::with_capacity(4),
            next_act_bankgroup: vec![0; groups],
            next_col_bankgroup: vec![0; groups],
            next_col_any: 0,
            next_ca: 0,
            refresh_due: timing.t_refi,
            busy_until: 0,
            issued: 0,
            stats: ChannelStats::default(),
            storage: Storage::new(elems_per_row),
            dual,
        }
    }

    /// Channel id used in error reports.
    pub fn id(&self) -> ChannelId {
        self.id
    }

    /// Memory organization of this channel.
    pub fn mem_config(&self) -> &MemConfig {
        &self.mem
    }

    /// Timing parameter set of this channel.
    pub fn timing(&self) -> &HbmTiming {
        &self.timing
    }

    /// Whether banks carry the dual row buffers.
    pub fn is_dual(&self) -> bool {
        self.dual
    }

    /// Bytes moved by one column command (`bus width * burst length`).
    pub fn burst_bytes(&self) -> u64 {
        self.mem.bus_bytes_per_cycle * self.timing.t_bl
    }

    /// Bursts per page.
    pub fn cols_per_page(&self) -> u32 {
        self.cols_per_page
    }

    /// Commands issued so far through [`Self::issue_at`], [`Self::issue`],
    /// [`Self::issue_control`] and [`Self::issue_data_burst`]. Every change
    /// of the channel's timing state is one of these issues, so two reads
    /// that return the same count saw the same timing state.
    pub(crate) fn issue_count(&self) -> u64 {
        self.issued
    }

    /// Read access to a bank's state.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn bank(&self, bank: BankId) -> &BankState {
        &self.banks[bank.index()]
    }

    /// Accumulated event counters.
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    pub(crate) fn stats_mut(&mut self) -> &mut ChannelStats {
        &mut self.stats
    }

    /// Functional data mirror.
    pub fn storage(&self) -> &Storage {
        &self.storage
    }

    /// Mutable functional data mirror.
    pub fn storage_mut(&mut self) -> &mut Storage {
        &mut self.storage
    }

    /// True when a refresh should be scheduled at or before `at`.
    pub fn refresh_overdue(&self, at: Cycle) -> bool {
        at >= self.refresh_due
    }

    /// Earliest cycle the C/A bus is free at or after `at`.
    pub fn ca_free_at(&self, at: Cycle) -> Cycle {
        self.next_ca.max(at)
    }

    /// Earliest cycle any command could issue: the C/A bus and a refresh
    /// in progress bind every command alike. [`Self::earliest_issue`] is
    /// never below it.
    pub(crate) fn command_floor(&self) -> Cycle {
        self.next_ca.max(self.busy_until)
    }

    /// Earliest cycle any column command (RD/WR) could issue: the
    /// [command floor](Self::command_floor) and the channel-wide column
    /// spacing. [`Self::earliest_issue`] of a column command is never
    /// below it.
    pub(crate) fn column_floor(&self) -> Cycle {
        self.command_floor().max(self.next_col_any)
    }

    fn bankgroup(&self, bank: BankId) -> usize {
        self.bankgroup_size.div(bank.0 as u64) as usize
    }

    fn col_spacing_any(&self) -> Cycle {
        self.timing.t_ccd_s.max(self.timing.t_bl)
    }

    fn col_spacing_group(&self) -> Cycle {
        self.timing.t_ccd_l.max(self.timing.t_bl)
    }

    /// Earliest legal issue cycle for `cmd`, at or after cycle 0.
    ///
    /// # Errors
    ///
    /// Returns structural errors that no amount of waiting cures:
    /// [`SimError::RowNotOpen`] for column commands without an open row,
    /// [`SimError::RowBufferConflict`] for a dual-buffer row hazard, and
    /// [`SimError::InvalidConfig`]-class misuse (ACT on an open slot,
    /// refresh with open rows — the caller must precharge first).
    pub fn earliest_issue(&self, cmd: &DramCommand) -> Result<Cycle, SimError> {
        let mut at = self.command_floor();
        match *cmd {
            DramCommand::Activate { bank, row, slot } => {
                let b = self.bank(bank);
                if b.row_conflicts(slot, row) {
                    return Err(SimError::RowBufferConflict {
                        channel: self.id,
                        bank,
                        row,
                    });
                }
                let s = b.slot(slot);
                if let Some(open) = s.open_row {
                    return Err(SimError::InvalidConfig(format!(
                        "ACT to {bank} with open row {open}; precharge first"
                    )));
                }
                at = at.max(s.act_ready).max(b.next_act_any);
                at = at.max(self.next_act_bankgroup[self.bankgroup(bank)]);
                if self.faw_window.len() == 4 {
                    at = at.max(self.faw_window[0] + self.timing.t_faw);
                }
                Ok(at)
            }
            DramCommand::Read { bank, col } | DramCommand::Write { bank, col } => {
                let b = self.bank(bank);
                let s = b.slot(Slot::Mem);
                if s.open_row.is_none() {
                    return Err(SimError::RowNotOpen {
                        channel: self.id,
                        bank,
                        row: col, // no row context; col aids debugging
                    });
                }
                if col >= self.cols_per_page() {
                    return Err(SimError::InvalidShape(format!(
                        "column {col} beyond page ({} bursts)",
                        self.cols_per_page()
                    )));
                }
                at = at
                    .max(s.col_ready)
                    .max(self.next_col_any)
                    .max(self.next_col_bankgroup[self.bankgroup(bank)]);
                Ok(at)
            }
            DramCommand::Precharge { bank, slot } => {
                let b = self.bank(bank);
                let s = b.slot(slot);
                if s.open_row.is_none() {
                    return Err(SimError::RowNotOpen {
                        channel: self.id,
                        bank,
                        row: u32::MAX,
                    });
                }
                Ok(at.max(s.pre_ready))
            }
            DramCommand::PrechargeAll { slot } => {
                let mut t = at;
                for b in &self.banks {
                    let s = b.slot(slot);
                    if s.open_row.is_some() {
                        t = t.max(s.pre_ready);
                    }
                }
                Ok(t)
            }
            DramCommand::RefreshAll => {
                for (i, b) in self.banks.iter().enumerate() {
                    if !b.fully_closed() {
                        return Err(SimError::InvalidConfig(format!(
                            "refresh with open row in bank {i}; precharge first"
                        )));
                    }
                    at = at.max(b.slot(Slot::Mem).act_ready);
                    if self.dual {
                        at = at.max(b.slot(Slot::Pim).act_ready);
                    }
                }
                Ok(at)
            }
        }
    }

    /// Issues `cmd` at cycle `at`, which must be legal.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TimingViolation`] if `at` precedes the earliest
    /// legal cycle, plus the structural errors of [`Self::earliest_issue`].
    pub fn issue_at(&mut self, cmd: DramCommand, at: Cycle) -> Result<IssueInfo, SimError> {
        let legal_at = self.earliest_issue(&cmd)?;
        if at < legal_at {
            return Err(SimError::TimingViolation {
                constraint: constraint_name(&cmd),
                channel: self.id,
                bank: cmd.bank(),
                at,
                legal_at,
            });
        }
        self.next_ca = at + 1;
        self.issued += 1;
        self.stats.ca_busy += 1;
        let t = self.timing;
        let done_at = match cmd {
            DramCommand::Activate { bank, row, slot } => {
                let group = self.bankgroup(bank);
                let b = &mut self.banks[bank.index()];
                let phys = b.resolve(slot);
                let s = b.slot_mut(slot);
                s.open_row = Some(row);
                s.act_at = at;
                s.col_ready = at + t.t_rcd;
                s.pre_ready = at + t.t_ras;
                b.next_act_any = at + t.t_rrd_l;
                self.next_act_bankgroup[group] = at + t.t_rrd_l;
                if self.faw_window.len() == 4 {
                    self.faw_window.pop_front();
                }
                self.faw_window.push_back(at);
                if phys == Slot::Pim {
                    self.stats.pim_acts += 1;
                } else {
                    self.stats.acts += 1;
                }
                at + t.t_rcd
            }
            DramCommand::Read { bank, .. } => {
                let group = self.bankgroup(bank);
                let b = &mut self.banks[bank.index()];
                let s = b.slot_mut(Slot::Mem);
                s.pre_ready = s.pre_ready.max(at + t.t_rtp);
                self.next_col_any = at + self.col_spacing_any();
                self.next_col_bankgroup[group] = at + self.col_spacing_group();
                self.stats.reads += 1;
                self.stats.bytes_read += self.burst_bytes();
                self.stats.data_bus_busy += t.t_bl;
                at + t.t_cl + t.t_bl
            }
            DramCommand::Write { bank, .. } => {
                let group = self.bankgroup(bank);
                let b = &mut self.banks[bank.index()];
                let s = b.slot_mut(Slot::Mem);
                let burst_end = at + t.t_cwl + t.t_bl;
                s.pre_ready = s.pre_ready.max(burst_end + t.t_wr);
                self.next_col_any = at + self.col_spacing_any();
                self.next_col_bankgroup[group] = at + self.col_spacing_group();
                self.stats.writes += 1;
                self.stats.bytes_written += self.burst_bytes();
                self.stats.data_bus_busy += t.t_bl;
                burst_end
            }
            DramCommand::Precharge { bank, slot } => {
                let b = &mut self.banks[bank.index()];
                let phys = b.resolve(slot);
                let s = b.slot_mut(slot);
                s.open_row = None;
                s.act_ready = at + t.t_rp;
                if phys == Slot::Pim {
                    self.stats.pim_precharges += 1;
                } else {
                    self.stats.precharges += 1;
                }
                at + t.t_rp
            }
            DramCommand::PrechargeAll { slot } => {
                let mut closed = 0;
                for b in &mut self.banks {
                    let phys = b.resolve(slot);
                    let s = b.slot_mut(slot);
                    if s.open_row.is_some() {
                        s.open_row = None;
                        s.act_ready = at + t.t_rp;
                        closed += 1;
                        if phys == Slot::Pim {
                            self.stats.pim_precharges += 1;
                        } else {
                            self.stats.precharges += 1;
                        }
                    }
                }
                let _ = closed;
                at + t.t_rp
            }
            DramCommand::RefreshAll => {
                let end = at + t.t_rfc;
                self.busy_until = end;
                for b in &mut self.banks {
                    b.next_act_any = b.next_act_any.max(end);
                    for slot in [Slot::Mem, Slot::Pim] {
                        let s = b.slot_mut(slot);
                        s.act_ready = s.act_ready.max(end);
                    }
                }
                self.refresh_due += t.t_refi;
                self.stats.refreshes += 1;
                end
            }
        };
        Ok(IssueInfo {
            issued_at: at,
            done_at,
        })
    }

    /// Issues `cmd` at its earliest legal cycle (never before `not_before`).
    ///
    /// # Errors
    ///
    /// Propagates the structural errors of [`Self::earliest_issue`].
    pub fn issue(&mut self, cmd: DramCommand, not_before: Cycle) -> Result<IssueInfo, SimError> {
        let at = self.earliest_issue(&cmd)?.max(not_before);
        self.issue_at(cmd, at)
    }

    /// Closes every open row and refreshes all banks: a precharge-all on
    /// each slot that holds an open row, then `RefreshAll`, each at its
    /// earliest legal cycle and never before `not_before`.
    ///
    /// Returns the issue cycle of the sequence's first command and the
    /// refresh's [`IssueInfo`].
    ///
    /// # Errors
    ///
    /// Propagates the structural errors of [`Self::earliest_issue`].
    pub fn close_rows_and_refresh(
        &mut self,
        not_before: Cycle,
    ) -> Result<(Cycle, IssueInfo), SimError> {
        let mut first = None;
        for slot in [Slot::Mem, Slot::Pim] {
            if self.banks.iter().any(|b| b.open_row(slot).is_some()) {
                let info = self.issue(DramCommand::PrechargeAll { slot }, not_before)?;
                first.get_or_insert(info.issued_at);
            }
        }
        let info = self.issue(DramCommand::RefreshAll, not_before)?;
        Ok((first.unwrap_or(info.issued_at), info))
    }

    /// Occupies one C/A bus slot without touching bank state.
    ///
    /// This is the hook for PIM control commands (`PIM_HEADER`,
    /// `PIM_DOTPRODUCT`, `PIM_GEMV`): they travel over the shared
    /// command/address bus — the contention the NeuPIMs controller manages —
    /// but their bank-side effects are modeled by the PIM engine itself.
    pub fn issue_control(&mut self, not_before: Cycle) -> IssueInfo {
        let at = self.command_floor().max(not_before);
        self.next_ca = at + 1;
        self.issued += 1;
        self.stats.ca_busy += 1;
        IssueInfo {
            issued_at: at,
            done_at: at + 1,
        }
    }

    /// Occupies one C/A slot plus one data-bus burst without a bank access.
    ///
    /// This is the `PIM_RDRESULT` data path: accumulated dot products move
    /// from the per-bank result registers to the host over the regular data
    /// bus, contending with MEM reads but not with any row buffer.
    pub fn issue_data_burst(&mut self, not_before: Cycle, is_read: bool) -> IssueInfo {
        let at = self.column_floor().max(not_before);
        self.next_ca = at + 1;
        self.next_col_any = at + self.col_spacing_any();
        self.issued += 1;
        self.stats.ca_busy += 1;
        self.stats.data_bus_busy += self.timing.t_bl;
        if is_read {
            self.stats.bytes_read += self.burst_bytes();
        } else {
            self.stats.bytes_written += self.burst_bytes();
        }
        IssueInfo {
            issued_at: at,
            done_at: at + self.timing.t_cl + self.timing.t_bl,
        }
    }
}

fn constraint_name(cmd: &DramCommand) -> &'static str {
    match cmd {
        DramCommand::Activate { .. } => "ACT timing (tRP/tRRD_L/tFAW/tRC)",
        DramCommand::Read { .. } => "RD timing (tRCD/tCCD)",
        DramCommand::Write { .. } => "WR timing (tRCD/tCCD)",
        DramCommand::Precharge { .. } | DramCommand::PrechargeAll { .. } => {
            "PRE timing (tRAS/tRTP/tWR)"
        }
        DramCommand::RefreshAll => "REF timing (tRP)",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ch(dual: bool) -> DramChannel {
        DramChannel::new(MemConfig::table2(), HbmTiming::table2(), dual)
    }

    fn act(bank: u32, row: u32, slot: Slot) -> DramCommand {
        DramCommand::Activate {
            bank: BankId::new(bank),
            row,
            slot,
        }
    }

    #[test]
    fn read_requires_open_row() {
        let mut c = ch(false);
        let err = c
            .issue(
                DramCommand::Read {
                    bank: BankId::new(0),
                    col: 0,
                },
                0,
            )
            .unwrap_err();
        assert!(matches!(err, SimError::RowNotOpen { .. }));
    }

    #[test]
    fn trcd_enforced_between_act_and_read() {
        let mut c = ch(false);
        let info = c.issue(act(0, 5, Slot::Mem), 0).unwrap();
        assert_eq!(info.issued_at, 0);
        assert_eq!(info.done_at, 14); // tRCD
        let rd = DramCommand::Read {
            bank: BankId::new(0),
            col: 0,
        };
        // Too early: cycle 5 < tRCD.
        let err = c.issue_at(rd, 5).unwrap_err();
        assert!(matches!(
            err,
            SimError::TimingViolation { legal_at: 14, .. }
        ));
        let info = c.issue(rd, 0).unwrap();
        assert_eq!(info.issued_at, 14);
        assert_eq!(info.done_at, 14 + 14 + 2); // + tCL + tBL
    }

    #[test]
    fn faw_limits_burst_of_activates() {
        let mut c = ch(false);
        // Activate 5 banks in distinct bank groups (no tRRD_L coupling).
        let mut times = Vec::new();
        for i in 0..5 {
            let bank = i * 4; // one per bank group
            let info = c.issue(act(bank, 0, Slot::Mem), 0).unwrap();
            times.push(info.issued_at);
        }
        // First four are limited only by the C/A bus (1 cmd/cycle)...
        assert_eq!(&times[..4], &[0, 1, 2, 3]);
        // ...the fifth must wait for the tFAW window to roll past ACT#0.
        assert_eq!(times[4], 30);
    }

    #[test]
    fn trrd_l_spaces_same_group_activates() {
        let mut c = ch(false);
        let a = c.issue(act(0, 0, Slot::Mem), 0).unwrap();
        let b = c.issue(act(1, 0, Slot::Mem), 0).unwrap(); // same group (banks 0-3)
        assert_eq!(b.issued_at - a.issued_at, 6); // tRRD_L
    }

    #[test]
    fn act_to_open_slot_is_structural_error() {
        let mut c = ch(false);
        c.issue(act(0, 0, Slot::Mem), 0).unwrap();
        let err = c.issue(act(0, 1, Slot::Mem), 0).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)));
    }

    #[test]
    fn precharge_respects_tras_and_reopen_respects_trp() {
        let mut c = ch(false);
        c.issue(act(0, 0, Slot::Mem), 0).unwrap();
        let pre = DramCommand::Precharge {
            bank: BankId::new(0),
            slot: Slot::Mem,
        };
        let info = c.issue(pre, 0).unwrap();
        assert_eq!(info.issued_at, 34); // tRAS
        let info = c.issue(act(0, 1, Slot::Mem), 0).unwrap();
        assert_eq!(info.issued_at, 34 + 14); // + tRP
    }

    #[test]
    fn write_recovery_delays_precharge() {
        let mut c = ch(false);
        c.issue(act(0, 0, Slot::Mem), 0).unwrap();
        let wr_info = c
            .issue(
                DramCommand::Write {
                    bank: BankId::new(0),
                    col: 0,
                },
                0,
            )
            .unwrap();
        // Write burst ends at issue + tCWL + tBL; PRE must wait tWR more.
        let pre_at = c
            .earliest_issue(&DramCommand::Precharge {
                bank: BankId::new(0),
                slot: Slot::Mem,
            })
            .unwrap();
        assert_eq!(pre_at, wr_info.done_at + 16); // tWR
    }

    #[test]
    fn dual_slots_hold_distinct_rows_but_not_the_same_row() {
        let mut c = ch(true);
        c.issue(act(0, 10, Slot::Mem), 0).unwrap();
        // A different row into the PIM buffer is fine.
        c.issue(act(0, 11, Slot::Pim), 0).unwrap();
        assert_eq!(c.bank(BankId::new(0)).open_row(Slot::Mem), Some(10));
        assert_eq!(c.bank(BankId::new(0)).open_row(Slot::Pim), Some(11));
        // Re-opening row 10 in the PIM buffer is the Figure 8(b) hazard.
        c.issue(
            DramCommand::Precharge {
                bank: BankId::new(0),
                slot: Slot::Pim,
            },
            0,
        )
        .unwrap();
        let err = c.issue(act(0, 10, Slot::Pim), 0).unwrap_err();
        assert!(matches!(err, SimError::RowBufferConflict { row: 10, .. }));
    }

    #[test]
    fn single_buffer_bank_blocks_second_activate() {
        // In a conventional bank, MEM and PIM share one row buffer: opening
        // a PIM row while a MEM row is open must fail (this is the "blocked
        // mode" the paper starts from).
        let mut c = ch(false);
        c.issue(act(0, 10, Slot::Mem), 0).unwrap();
        let err = c.issue(act(0, 11, Slot::Pim), 0).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)));
    }

    #[test]
    fn refresh_requires_closed_banks_and_blocks_channel() {
        let mut c = ch(false);
        c.issue(act(0, 0, Slot::Mem), 0).unwrap();
        assert!(matches!(
            c.issue(DramCommand::RefreshAll, 0),
            Err(SimError::InvalidConfig(_))
        ));
        c.issue(DramCommand::PrechargeAll { slot: Slot::Mem }, 0)
            .unwrap();
        let info = c.issue(DramCommand::RefreshAll, 0).unwrap();
        assert_eq!(info.done_at - info.issued_at, 260); // tRFC
                                                        // The next activate waits for the refresh to complete.
        let nxt = c.issue(act(0, 0, Slot::Mem), 0).unwrap();
        assert!(nxt.issued_at >= info.done_at);
        // And the next refresh is scheduled one tREFI later.
        assert_eq!(c.refresh_due, 3900 * 2);
    }

    #[test]
    fn column_spacing_separates_bursts() {
        let mut c = ch(false);
        c.issue(act(0, 0, Slot::Mem), 0).unwrap();
        c.issue(act(4, 0, Slot::Mem), 0).unwrap(); // different group
        let r0 = c
            .issue(
                DramCommand::Read {
                    bank: BankId::new(0),
                    col: 0,
                },
                0,
            )
            .unwrap();
        let r1 = c
            .issue(
                DramCommand::Read {
                    bank: BankId::new(4),
                    col: 0,
                },
                0,
            )
            .unwrap();
        // Different bank groups: spacing = max(tCCD_S, tBL) = tBL = 2.
        assert_eq!(r1.issued_at - r0.issued_at, 2);
        let r2 = c
            .issue(
                DramCommand::Read {
                    bank: BankId::new(4),
                    col: 1,
                },
                0,
            )
            .unwrap();
        // Same bank group: spacing = max(tCCD_L, tBL) = 2.
        assert_eq!(r2.issued_at - r1.issued_at, 2);
    }

    #[test]
    fn stats_count_commands() {
        let mut c = ch(true);
        c.issue(act(0, 0, Slot::Mem), 0).unwrap();
        c.issue(act(0, 1, Slot::Pim), 0).unwrap();
        c.issue(
            DramCommand::Read {
                bank: BankId::new(0),
                col: 0,
            },
            0,
        )
        .unwrap();
        let s = c.stats();
        assert_eq!(s.acts, 1);
        assert_eq!(s.pim_acts, 1);
        assert_eq!(s.reads, 1);
        assert_eq!(s.bytes_read, 64);
        assert_eq!(s.ca_busy, 3);
    }
}
