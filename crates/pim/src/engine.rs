//! GEMV command-stream generation and execution.
//!
//! [`GemvEngine`] turns [`GemvJob`]s into timed command streams on a
//! [`DramChannel`]:
//!
//! 1. an optional `PIM_HEADER` announcing the shape (enables refresh-safe
//!    scheduling, Section 5.2);
//! 2. `PIM_GWRITE`s copying the operand vector into the global vector
//!    buffer (modeled as a PIM-slot activation plus an internal page copy);
//! 3. per tile: grouped activations (`act_group` banks at a time, paced by
//!    `tFAW` exactly as the paper describes), dot-product commands, and a
//!    PIM precharge;
//! 4. result readback over the shared data bus.
//!
//! Activation order strides across bank groups so consecutive activates are
//! not serialized by `tRRD_L`; the four-activate window then becomes the
//! pacing constraint, which is what gives PIM its characteristic in-bank
//! bandwidth (~4x the external bus for full-page tiles).
//!
//! The engine distinguishes the paper's two control styles
//! ([`CommandMode::FineGrained`] vs [`CommandMode::Composite`]) — composite
//! `PIM_GEMV` commands collapse per-round `PIM_DOTPRODUCT`/`PIM_RDRESULT`
//! traffic, Figure 9 — and models the `PIM_HEADER` refresh contract: with a
//! header the engine refreshes *between* tiles; without one, a refresh
//! falling due mid-tile aborts and replays the tile.

use std::collections::VecDeque;

use neupims_dram::{DramChannel, DramCommand, Slot};
use neupims_types::{config::PimConfig, BankId, Cycle, DataType, MemConfig, SimError};

use crate::command::GemvHeader;

/// Control style of the PIM command stream (Figure 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CommandMode {
    /// Newton-style: one `PIM_DOTPRODUCT` per activation group and one
    /// `PIM_RDRESULT` per tile — heavy C/A traffic.
    FineGrained,
    /// NeuPIMs-style: one composite `PIM_GEMV` per tile, results read once
    /// at the end of the job — light C/A traffic.
    #[default]
    Composite,
}

/// The rows one PIM tile activates: up to one `(bank, row)` pair per bank.
///
/// A tile is one grouped-activation round across the channel's banks — the
/// unit `N_tiles` counts in Algorithm 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileSpec {
    /// Rows to activate and dot-product, in activation order.
    pub rows: Vec<(BankId, u32)>,
}

/// One GEMV operation to execute on a channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GemvJob {
    /// Vector pages to load into the global vector buffer first.
    pub gwrites: Vec<(BankId, u32)>,
    /// Matrix tiles to stream through the in-bank units.
    pub tiles: Vec<TileSpec>,
    /// Result bursts to return to the host.
    pub result_bursts: u32,
    /// Earliest cycle the job may start (dependency release time).
    pub min_start: Cycle,
}

impl GemvJob {
    /// Builds a dense synthetic job touching every bank: `n_tiles` tile
    /// rounds with rows starting at `row_base`, plus `n_gwrites` vector
    /// loads. Used by calibration and tests.
    pub fn synthetic(mem: &MemConfig, n_tiles: u32, n_gwrites: u32, row_base: u32) -> Self {
        let order = bankgroup_strided_order(mem);
        let rows_per_bank = mem.rows_per_bank() as u32;
        let tiles = (0..n_tiles)
            .map(|t| TileSpec {
                rows: order
                    .iter()
                    .map(|&b| (b, (row_base + t) % rows_per_bank))
                    .collect(),
            })
            .collect();
        let gwrites = (0..n_gwrites)
            .map(|g| {
                (
                    BankId::new(g % mem.banks_per_channel),
                    (row_base + n_tiles + g) % rows_per_bank,
                )
            })
            .collect();
        Self {
            gwrites,
            tiles,
            // Composite GEMV returns only the accumulated output vector,
            // a small fraction of the matrix traffic.
            result_bursts: (n_tiles / 4).max(1),
            min_start: 0,
        }
    }

    /// The `PIM_HEADER` payload describing this job.
    pub fn header(&self) -> GemvHeader {
        GemvHeader {
            n_tiles: self.tiles.len() as u32,
            n_gwrites: self.gwrites.len() as u32,
            result_bursts: self.result_bursts,
        }
    }

    /// Number of tile rounds.
    pub fn n_tiles(&self) -> u64 {
        self.tiles.len() as u64
    }
}

/// Bank order that strides across bank groups, so consecutive activations
/// are spaced by the C/A bus and `tFAW` rather than `tRRD_L`.
pub fn bankgroup_strided_order(mem: &MemConfig) -> Vec<BankId> {
    let groups = mem.bankgroups();
    let per_group = mem.banks_per_bankgroup;
    let mut order = Vec::with_capacity(mem.banks_per_channel as usize);
    for i in 0..per_group {
        for g in 0..groups {
            order.push(BankId::new(g * per_group + i));
        }
    }
    order
}

/// Counters and milestones of an engine run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PimStats {
    /// Completed jobs.
    pub jobs_done: u64,
    /// Completed tile rounds (excluding replays).
    pub tiles_done: u64,
    /// Tile rounds replayed because a refresh interrupted them (only
    /// without `PIM_HEADER`).
    pub tile_replays: u64,
    /// `PIM_GWRITE`s executed.
    pub gwrites_done: u64,
    /// Control commands issued (headers, dot products, composite GEMVs).
    pub control_slots: u64,
    /// Result bursts read back.
    pub result_bursts: u64,
    /// Refreshes the engine initiated.
    pub refreshes: u64,
    /// Issue cycle of the first command.
    pub first_issue: Cycle,
    /// Completion cycle of the last command.
    pub last_done: Cycle,
    /// Cycles in-bank MAC units spent computing (per-bank sum).
    pub bank_compute_cycles: u64,
}

impl PimStats {
    /// Wall-clock span of the run.
    pub fn span(&self) -> Cycle {
        self.last_done.saturating_sub(self.first_issue)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Start,
    Gwrite {
        idx: usize,
        step: GwriteStep,
    },
    TileActs {
        tile: usize,
        act_idx: usize,
        replayed: bool,
    },
    TileDrain {
        tile: usize,
        replayed: bool,
    },
    Results {
        burst: u32,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GwriteStep {
    Act,
    Pre,
}

#[derive(Debug, Clone)]
struct JobState {
    job: GemvJob,
    phase: Phase,
    gvb_ready: Cycle,
    tile_dots_done: Cycle,
    group_col_ready: Cycle,
}

/// Executes GEMV jobs on one channel's PIM datapath.
#[derive(Debug, Clone)]
pub struct GemvEngine {
    pim: PimConfig,
    mode: CommandMode,
    use_header: bool,
    jobs: VecDeque<JobState>,
    stats: PimStats,
    started: bool,
}

impl GemvEngine {
    /// Creates an engine. `use_header` enables the `PIM_HEADER` contract
    /// (refresh-safe scheduling between tiles).
    pub fn new(pim: PimConfig, mode: CommandMode, use_header: bool) -> Self {
        Self {
            pim,
            mode,
            use_header,
            jobs: VecDeque::new(),
            stats: PimStats::default(),
            started: false,
        }
    }

    /// Queues a job for execution.
    pub fn enqueue(&mut self, job: GemvJob) {
        self.jobs.push_back(JobState {
            job,
            phase: Phase::Start,
            gvb_ready: 0,
            tile_dots_done: 0,
            group_col_ready: 0,
        });
    }

    /// True when no job remains.
    pub fn is_idle(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &PimStats {
        &self.stats
    }

    /// True when a refresh may be performed without corrupting in-flight
    /// PIM work: the engine is idle or sits at a boundary where every PIM
    /// row buffer is precharged (job start, between GWRITEs, between tiles,
    /// or during result readback).
    pub fn at_safe_point(&self) -> bool {
        match self.jobs.front() {
            None => true,
            Some(js) => matches!(
                js.phase,
                Phase::Start
                    | Phase::Gwrite {
                        step: GwriteStep::Act,
                        ..
                    }
                    | Phase::TileActs { act_idx: 0, .. }
                    | Phase::Results { .. }
            ),
        }
    }

    /// Per-row dot-product duration: one page of fp16 elements through the
    /// bank's MAC lanes.
    pub fn dot_cycles(&self, mem: &MemConfig) -> Cycle {
        mem.page_elems(DataType::Fp16) / self.pim.lanes_per_bank as u64
    }

    fn copy_cycles(&self, ch: &DramChannel) -> Cycle {
        ch.cols_per_page() as u64 * ch.timing().t_ccd_l
    }

    /// Conservative duration estimate for one tile, used by the header
    /// contract to decide whether a refresh must happen first.
    fn tile_estimate(&self, ch: &DramChannel, banks_in_tile: usize) -> Cycle {
        let t = ch.timing();
        let groups = (banks_in_tile as u64).div_ceil(self.pim.act_group as u64);
        groups * t.t_faw + t.t_rcd + self.dot_cycles(ch.mem_config()) + t.t_rp + 16
    }

    fn note_issue(&mut self, at: Cycle, done: Cycle) {
        if !self.started {
            self.stats.first_issue = at;
            self.started = true;
        }
        self.stats.last_done = self.stats.last_done.max(done);
    }

    /// Refreshes if due, provided the MEM side has no open rows (when it
    /// does, refresh coordination belongs to the MEM controller / duet
    /// driver and the engine defers).
    fn maybe_refresh(&mut self, ch: &mut DramChannel, at: Cycle) -> Result<(), SimError> {
        if !ch.refresh_overdue(at) {
            return Ok(());
        }
        let banks = ch.mem_config().banks_per_channel;
        let mem_open = (0..banks).any(|b| ch.bank(BankId::new(b)).open_row(Slot::Mem).is_some());
        if mem_open {
            return Ok(()); // duet driver owns the refresh
        }
        let (first_at, info) = ch.close_rows_and_refresh(at)?;
        // The refresh ends after the precharge it follows.
        self.note_issue(first_at, info.done_at);
        self.stats.refreshes += 1;
        Ok(())
    }

    fn front(&self) -> &JobState {
        self.jobs.front().expect("checked non-empty")
    }

    fn front_mut(&mut self) -> &mut JobState {
        self.jobs.front_mut().expect("checked non-empty")
    }

    /// Issues every command whose earliest legal cycle is `<= horizon`.
    ///
    /// Returns `Ok(None)` when all jobs have completed, or `Ok(Some(next))`
    /// with the earliest cycle at which the engine can issue its next
    /// command (always `> horizon`).
    ///
    /// # Errors
    ///
    /// Propagates structural scheduling errors from the channel; these
    /// indicate engine bugs rather than legal runtime outcomes.
    pub fn advance(
        &mut self,
        ch: &mut DramChannel,
        horizon: Cycle,
    ) -> Result<Option<Cycle>, SimError> {
        loop {
            if self.jobs.is_empty() {
                return Ok(None);
            }
            let phase = self.front().phase;
            let dot_cycles = self.dot_cycles(ch.mem_config());
            let act_group = self.pim.act_group as usize;

            match phase {
                Phase::Start => {
                    let start = self.front().job.min_start;
                    let first_tile_rows =
                        self.front().job.tiles.first().map_or(0, |t| t.rows.len());
                    if self.use_header {
                        let est = self.tile_estimate(ch, first_tile_rows);
                        if ch.refresh_overdue(ch.ca_free_at(start) + est) {
                            self.maybe_refresh(ch, start)?;
                        }
                        let at = ch.ca_free_at(start);
                        if at > horizon {
                            return Ok(Some(at));
                        }
                        let info = ch.issue_control(at);
                        self.note_issue(info.issued_at, info.done_at);
                        self.stats.control_slots += 1;
                    }
                    let js = self.front_mut();
                    js.gvb_ready = start;
                    js.phase = if js.job.gwrites.is_empty() {
                        first_tile_phase(&js.job)
                    } else {
                        Phase::Gwrite {
                            idx: 0,
                            step: GwriteStep::Act,
                        }
                    };
                }
                Phase::Gwrite { idx, step } => {
                    let (bank, row) = self.front().job.gwrites[idx];
                    match step {
                        GwriteStep::Act => {
                            let min_start = self.front().job.min_start;
                            let cmd = DramCommand::Activate {
                                bank,
                                row,
                                slot: Slot::Pim,
                            };
                            let at = ch.earliest_issue(&cmd)?.max(min_start);
                            if at > horizon {
                                return Ok(Some(at));
                            }
                            let info = ch.issue_at(cmd, at)?;
                            self.note_issue(info.issued_at, info.done_at);
                            // The GWRITE control command itself.
                            let ctl = ch.issue_control(info.issued_at + 1);
                            self.note_issue(ctl.issued_at, ctl.done_at);
                            self.stats.control_slots += 1;
                            let copy = self.copy_cycles(ch);
                            let js = self.front_mut();
                            js.gvb_ready = js.gvb_ready.max(info.done_at + copy);
                            js.phase = Phase::Gwrite {
                                idx,
                                step: GwriteStep::Pre,
                            };
                        }
                        GwriteStep::Pre => {
                            let not_before = self.front().gvb_ready;
                            let cmd = DramCommand::Precharge {
                                bank,
                                slot: Slot::Pim,
                            };
                            let at = ch.earliest_issue(&cmd)?.max(not_before);
                            if at > horizon {
                                return Ok(Some(at));
                            }
                            let info = ch.issue_at(cmd, at)?;
                            self.note_issue(info.issued_at, info.done_at);
                            self.stats.gwrites_done += 1;
                            let js = self.front_mut();
                            js.phase = if idx + 1 < js.job.gwrites.len() {
                                Phase::Gwrite {
                                    idx: idx + 1,
                                    step: GwriteStep::Act,
                                }
                            } else {
                                first_tile_phase(&js.job)
                            };
                        }
                    }
                }
                Phase::TileActs {
                    tile,
                    act_idx,
                    replayed,
                } => {
                    // Header contract: refresh between tiles, never inside.
                    if act_idx == 0 && self.use_header {
                        let rows_in_tile = self.front().job.tiles[tile].rows.len();
                        let gvb_ready = self.front().gvb_ready;
                        let est = self.tile_estimate(ch, rows_in_tile);
                        let start = ch.ca_free_at(gvb_ready);
                        if ch.refresh_overdue(start + est) {
                            self.maybe_refresh(ch, start)?;
                        }
                    }
                    let (bank, row) = self.front().job.tiles[tile].rows[act_idx];
                    let n_rows = self.front().job.tiles[tile].rows.len();
                    let gvb_ready = self.front().gvb_ready;
                    let cmd = DramCommand::Activate {
                        bank,
                        row,
                        slot: Slot::Pim,
                    };
                    let at = ch.earliest_issue(&cmd)?.max(gvb_ready);
                    if at > horizon {
                        return Ok(Some(at));
                    }
                    let info = ch.issue_at(cmd, at)?;
                    self.note_issue(info.issued_at, info.done_at);
                    let group_end = act_idx % act_group == act_group - 1 || act_idx == n_rows - 1;
                    {
                        let js = self.front_mut();
                        js.group_col_ready = js.group_col_ready.max(info.done_at);
                    }
                    if group_end {
                        // Dot-product control for this group: fine-grained
                        // issues one per group; composite issues a single
                        // PIM_GEMV on the first group only.
                        let issue_ctl = match self.mode {
                            CommandMode::FineGrained => true,
                            CommandMode::Composite => act_idx < act_group,
                        };
                        if issue_ctl {
                            let ctl = ch.issue_control(info.issued_at + 1);
                            self.note_issue(ctl.issued_at, ctl.done_at);
                            self.stats.control_slots += 1;
                        }
                        let members = (act_idx % act_group + 1) as u64;
                        self.stats.bank_compute_cycles += members * dot_cycles;
                        let js = self.front_mut();
                        let start = js.group_col_ready.max(js.gvb_ready);
                        js.tile_dots_done = js.tile_dots_done.max(start + dot_cycles);
                        js.group_col_ready = 0;
                    }
                    let js = self.front_mut();
                    js.phase = if act_idx + 1 < n_rows {
                        Phase::TileActs {
                            tile,
                            act_idx: act_idx + 1,
                            replayed,
                        }
                    } else {
                        Phase::TileDrain { tile, replayed }
                    };
                }
                Phase::TileDrain { tile, replayed } => {
                    let not_before = self.front().tile_dots_done;
                    let cmd = DramCommand::PrechargeAll { slot: Slot::Pim };
                    let at = ch.earliest_issue(&cmd)?.max(not_before);
                    if at > horizon {
                        return Ok(Some(at));
                    }
                    let info = ch.issue_at(cmd, at)?;
                    self.note_issue(info.issued_at, info.done_at);

                    // Fine-grained control reads partial results every tile.
                    if self.mode == CommandMode::FineGrained {
                        let burst = ch.issue_data_burst(info.issued_at + 1, true);
                        self.note_issue(burst.issued_at, burst.done_at);
                        self.stats.result_bursts += 1;
                        self.stats.control_slots += 1;
                    }

                    // Refresh interrupted this tile? Without a header the
                    // controller could not have known: replay the tile.
                    let interrupted = ch.refresh_overdue(info.issued_at);
                    self.front_mut().tile_dots_done = 0;
                    if interrupted && !self.use_header && !replayed {
                        self.stats.tile_replays += 1;
                        self.maybe_refresh(ch, info.done_at)?;
                        self.front_mut().phase = Phase::TileActs {
                            tile,
                            act_idx: 0,
                            replayed: true,
                        };
                        continue;
                    }
                    if interrupted && self.use_header {
                        // Header estimate missed; refresh between tiles now.
                        self.maybe_refresh(ch, info.done_at)?;
                    }
                    self.stats.tiles_done += 1;
                    let mode = self.mode;
                    let js = self.front_mut();
                    if tile + 1 < js.job.tiles.len() {
                        js.phase = Phase::TileActs {
                            tile: tile + 1,
                            act_idx: 0,
                            replayed: false,
                        };
                    } else if js.job.result_bursts > 0 && mode == CommandMode::Composite {
                        js.phase = Phase::Results { burst: 0 };
                    } else {
                        self.finish_job();
                    }
                }
                Phase::Results { burst } => {
                    let total = self.front().job.result_bursts;
                    if total == 0 {
                        self.finish_job();
                        continue;
                    }
                    let not_before = self.front().tile_dots_done;
                    let at = ch.ca_free_at(not_before);
                    if at > horizon {
                        return Ok(Some(at));
                    }
                    let info = ch.issue_data_burst(at, true);
                    self.note_issue(info.issued_at, info.done_at);
                    self.stats.result_bursts += 1;
                    if burst + 1 < total {
                        self.front_mut().phase = Phase::Results { burst: burst + 1 };
                    } else {
                        self.finish_job();
                    }
                }
            }
        }
    }

    fn finish_job(&mut self) {
        self.jobs.pop_front();
        self.stats.jobs_done += 1;
    }

    /// Runs every queued job to completion and returns the final counters.
    ///
    /// # Errors
    ///
    /// Propagates structural scheduling errors from the channel.
    pub fn run_to_completion(&mut self, ch: &mut DramChannel) -> Result<PimStats, SimError> {
        while self.advance(ch, Cycle::MAX)?.is_some() {}
        Ok(self.stats)
    }
}

fn first_tile_phase(job: &GemvJob) -> Phase {
    if job.tiles.is_empty() {
        Phase::Results { burst: 0 }
    } else {
        Phase::TileActs {
            tile: 0,
            act_idx: 0,
            replayed: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neupims_types::HbmTiming;

    fn channel(dual: bool) -> DramChannel {
        DramChannel::new(MemConfig::table2(), HbmTiming::table2(), dual)
    }

    fn engine(mode: CommandMode, header: bool) -> GemvEngine {
        GemvEngine::new(PimConfig::newton(), mode, header)
    }

    #[test]
    fn strided_order_avoids_trrd_neighbors() {
        let mem = MemConfig::table2();
        let order = bankgroup_strided_order(&mem);
        assert_eq!(order.len(), 32);
        // Consecutive activations must hit different bank groups.
        for w in order.windows(2) {
            assert_ne!(w[0].0 / 4, w[1].0 / 4, "{w:?}");
        }
        // All banks appear exactly once.
        let mut seen: Vec<u32> = order.iter().map(|b| b.0).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn single_tile_latency_is_faw_paced() {
        let mem = MemConfig::table2();
        let mut ch = channel(true);
        let mut e = engine(CommandMode::Composite, true);
        e.enqueue(GemvJob::synthetic(&mem, 1, 0, 0));
        let s = e.run_to_completion(&mut ch).unwrap();
        assert_eq!(s.tiles_done, 1);
        // 32 banks / 4-per-FAW-window: ~8 windows of 30 cycles, plus tRCD,
        // dot compute and precharge. Must exceed the pure FAW floor and stay
        // within a small constant of it.
        let span = s.span();
        assert!(span >= 7 * 30, "span {span} below FAW floor");
        assert!(span < 7 * 30 + 150, "span {span} unexpectedly slow");
    }

    #[test]
    fn steady_state_tile_rate() {
        let mem = MemConfig::table2();
        let mut ch = channel(true);
        let mut e = engine(CommandMode::Composite, true);
        e.enqueue(GemvJob::synthetic(&mem, 32, 1, 0));
        let s = e.run_to_completion(&mut ch).unwrap();
        assert_eq!(s.tiles_done, 32);
        let per_tile = s.span() as f64 / 32.0;
        // Steady state: bounded below by the FAW pacing (8 groups x 30) and
        // above by ~340 cycles/tile (pacing + drain barrier).
        assert!(per_tile >= 200.0, "per-tile {per_tile}");
        assert!(per_tile <= 340.0, "per-tile {per_tile}");
    }

    #[test]
    fn composite_mode_uses_fewer_control_slots() {
        let mem = MemConfig::table2();
        let run = |mode| {
            let mut ch = channel(true);
            let mut e = engine(mode, true);
            e.enqueue(GemvJob::synthetic(&mem, 16, 1, 0));
            e.run_to_completion(&mut ch).unwrap()
        };
        let fine = run(CommandMode::FineGrained);
        let comp = run(CommandMode::Composite);
        assert!(
            fine.control_slots > 4 * comp.control_slots,
            "fine {} vs composite {}",
            fine.control_slots,
            comp.control_slots
        );
        // Fine-grained also reads partial results every tile.
        assert!(fine.result_bursts > comp.result_bursts);
    }

    #[test]
    fn gwrite_then_tiles() {
        let mem = MemConfig::table2();
        let mut ch = channel(true);
        let mut e = engine(CommandMode::Composite, true);
        e.enqueue(GemvJob::synthetic(&mem, 2, 3, 0));
        let s = e.run_to_completion(&mut ch).unwrap();
        assert_eq!(s.gwrites_done, 3);
        assert_eq!(s.tiles_done, 2);
        assert_eq!(s.jobs_done, 1);
    }

    #[test]
    fn long_runs_refresh_without_header_replay_tiles() {
        let mem = MemConfig::table2();
        // Enough tiles to cross several tREFI windows (3900 cycles each,
        // ~280 cycles per tile -> every ~14 tiles).
        let mut ch = channel(true);
        let mut e = engine(CommandMode::Composite, false);
        e.enqueue(GemvJob::synthetic(&mem, 64, 0, 0));
        let s = e.run_to_completion(&mut ch).unwrap();
        assert!(s.refreshes >= 3, "refreshes {}", s.refreshes);
        assert!(s.tile_replays >= 3, "replays {}", s.tile_replays);

        let mut ch2 = channel(true);
        let mut e2 = engine(CommandMode::Composite, true);
        e2.enqueue(GemvJob::synthetic(&mem, 64, 0, 0));
        let s2 = e2.run_to_completion(&mut ch2).unwrap();
        assert!(s2.refreshes >= 3);
        assert_eq!(s2.tile_replays, 0, "header mode must never replay");
        assert!(
            s2.span() < s.span(),
            "header mode should be faster: {} vs {}",
            s2.span(),
            s.span()
        );
    }

    #[test]
    fn min_start_delays_execution() {
        let mem = MemConfig::table2();
        let mut ch = channel(true);
        let mut e = engine(CommandMode::Composite, true);
        let mut job = GemvJob::synthetic(&mem, 1, 0, 0);
        job.min_start = 10_000;
        e.enqueue(job);
        let s = e.run_to_completion(&mut ch).unwrap();
        assert!(s.first_issue >= 10_000);
    }

    #[test]
    fn advance_respects_horizon() {
        let mem = MemConfig::table2();
        let mut ch = channel(true);
        let mut e = engine(CommandMode::Composite, true);
        e.enqueue(GemvJob::synthetic(&mem, 4, 0, 0));
        // With a tiny horizon the engine must stop early and report when it
        // can continue.
        let next = e.advance(&mut ch, 5).unwrap();
        assert!(next.is_some());
        assert!(next.unwrap() > 5);
        assert!(!e.is_idle());
        // Completing afterwards works.
        let s = e.run_to_completion(&mut ch).unwrap();
        assert_eq!(s.tiles_done, 4);
    }

    #[test]
    fn jobs_execute_in_order() {
        let mem = MemConfig::table2();
        let mut ch = channel(true);
        let mut e = engine(CommandMode::Composite, true);
        e.enqueue(GemvJob::synthetic(&mem, 2, 0, 0));
        e.enqueue(GemvJob::synthetic(&mem, 3, 0, 8));
        let s = e.run_to_completion(&mut ch).unwrap();
        assert_eq!(s.jobs_done, 2);
        assert_eq!(s.tiles_done, 5);
    }

    #[test]
    fn blocked_mode_single_buffer_also_executes() {
        // On single-row-buffer banks the same command stream is legal as
        // long as nothing else uses the banks (the "blocked" mode).
        let mem = MemConfig::table2();
        let mut ch = channel(false);
        let mut e = engine(CommandMode::Composite, true);
        e.enqueue(GemvJob::synthetic(&mem, 4, 1, 0));
        let s = e.run_to_completion(&mut ch).unwrap();
        assert_eq!(s.tiles_done, 4);
    }

    #[test]
    fn partial_tiles_are_legal() {
        // Tiles touching only a few banks (short sequences) still execute.
        let mut ch = channel(true);
        let mut e = engine(CommandMode::Composite, true);
        let job = GemvJob {
            gwrites: vec![(BankId::new(0), 100)],
            tiles: vec![TileSpec {
                rows: vec![(BankId::new(0), 0), (BankId::new(4), 0)],
            }],
            result_bursts: 1,
            min_start: 0,
        };
        e.enqueue(job);
        let s = e.run_to_completion(&mut ch).unwrap();
        assert_eq!(s.tiles_done, 1);
        assert_eq!(s.result_bursts, 1);
    }
}
