//! Iteration metrics: breakdowns, utilization, and the power-model bridge.

use neupims_power::DramActivity;
use neupims_types::{Bytes, Cycle, NeuPimsConfig};

/// Everything measured about one decode iteration on one device.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IterationBreakdown {
    /// Wall-clock cycles of the iteration.
    pub total_cycles: Cycle,
    /// Useful GEMM FLOPs executed on the systolic cluster.
    pub npu_flops: u64,
    /// Cycles the systolic cluster was executing (stage compute spans).
    pub npu_busy: Cycle,
    /// Cycles the vector units were executing.
    pub vector_busy: Cycle,
    /// Per-channel PIM busy cycles.
    pub pim_busy: Vec<Cycle>,
    /// Bytes moved over the external (host-side) memory buses.
    pub bus_bytes: Bytes,
    /// Bytes the PIM units consumed in-bank (never crossing the bus).
    pub pim_inbank_bytes: Bytes,
    /// PIM tiles executed (all channels).
    pub pim_tiles: u64,
    /// PIM GWRITEs executed (all channels).
    pub pim_gwrites: u64,
    /// Interconnect cycles spent in tensor-parallel all-reduces.
    pub allreduce_cycles: Cycle,
    /// Tokens produced by this iteration (= batch size in decode).
    pub tokens: u64,
}

impl IterationBreakdown {
    /// Merges another iteration's counters (summing spans and traffic).
    pub fn merge(&mut self, other: &IterationBreakdown) {
        self.total_cycles += other.total_cycles;
        self.npu_flops += other.npu_flops;
        self.npu_busy += other.npu_busy;
        self.vector_busy += other.vector_busy;
        if self.pim_busy.len() < other.pim_busy.len() {
            self.pim_busy.resize(other.pim_busy.len(), 0);
        }
        for (a, b) in self.pim_busy.iter_mut().zip(&other.pim_busy) {
            *a += b;
        }
        self.bus_bytes += other.bus_bytes;
        self.pim_inbank_bytes += other.pim_inbank_bytes;
        self.pim_tiles += other.pim_tiles;
        self.pim_gwrites += other.pim_gwrites;
        self.allreduce_cycles += other.allreduce_cycles;
        self.tokens += other.tokens;
    }

    /// Tokens per second at the device clock.
    pub fn tokens_per_sec(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.tokens as f64 / neupims_types::units::cycles_to_secs(self.total_cycles)
        }
    }

    /// Resource utilization (Table 4's rows and Figure 6's stage bars).
    pub fn utilization(&self, cfg: &NeuPimsConfig) -> Utilization {
        let t = self.total_cycles.max(1) as f64;
        let peak_flops = cfg.npu.peak_flops_per_cycle() as f64;
        let peak_bw = cfg.mem.peak_bw_bytes_per_cycle() as f64;
        let channels = cfg.mem.channels.max(1) as f64;
        let pim_busy_sum: u64 = self.pim_busy.iter().sum();
        let npu = (self.npu_flops as f64 / (peak_flops * t)).min(1.0);
        let pim = (pim_busy_sum as f64 / (channels * t)).min(1.0);
        // A stage achieves its efficiency only while it runs: the GEMM
        // stages span `npu_busy`, the MHA stage the busiest channel.
        let gemm_fraction = (self.npu_busy as f64 / t).min(1.0);
        let mha_fraction = (self.pim_busy.iter().max().copied().unwrap_or(0) as f64 / t).min(1.0);
        Utilization {
            npu,
            pim,
            bandwidth: (self.bus_bytes as f64 / (peak_bw * t)).min(1.0),
            npu_stage: (npu / gemm_fraction.max(1e-9)).min(1.0),
            pim_stage: (pim / mha_fraction.max(1e-9)).min(1.0),
        }
    }

    /// Converts the iteration into average per-channel DRAM activity for
    /// the power model.
    ///
    /// `pim_compute_cycles` follows the paper's convention: the all-bank
    /// computation command draws its 4x-read current for the *whole GEMV
    /// occupancy* of the channel (activation-paced tile rounds), not just
    /// the MAC-array cycles.
    pub fn dram_activity(&self, cfg: &NeuPimsConfig, dual_row_buffer: bool) -> DramActivity {
        let channels = cfg.mem.channels.max(1) as u64;
        let page = cfg.mem.page_bytes;
        let burst = cfg.mem.bus_bytes_per_cycle * cfg.timing.t_bl;
        let bus_bytes_ch = self.bus_bytes / channels;
        let banks = cfg.mem.banks_per_channel as u64;
        let pim_tiles_ch = self.pim_tiles / channels;
        let pim_busy_avg = if self.pim_busy.is_empty() {
            0
        } else {
            self.pim_busy.iter().sum::<u64>() / self.pim_busy.len() as u64
        };
        DramActivity {
            cycles: self.total_cycles,
            acts: bus_bytes_ch / page,
            reads: (bus_bytes_ch * 4 / 5) / burst,
            writes: (bus_bytes_ch / 5) / burst,
            refreshes: self.total_cycles / cfg.timing.t_refi.max(1),
            pim_acts: pim_tiles_ch * banks + self.pim_gwrites / channels,
            pim_compute_cycles: pim_busy_avg,
            open_fraction: 0.8,
            dual_row_buffer,
        }
    }
}

/// Resource utilization of one run, all in `[0, 1]` (Table 4, Figure 6).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Utilization {
    /// Achieved fraction of peak NPU FLOPs.
    pub npu: f64,
    /// Average fraction of time PIM channels were computing.
    pub pim: f64,
    /// Fraction of peak external bandwidth used.
    pub bandwidth: f64,
    /// NPU utilization while the GEMM stages run (Figure 6's QKV
    /// generation and projection/FFN bars).
    pub npu_stage: f64,
    /// PIM utilization while the MHA stage runs (Figure 6's attention
    /// bar).
    pub pim_stage: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> IterationBreakdown {
        IterationBreakdown {
            total_cycles: 100_000,
            npu_flops: 10_000_000_000,
            npu_busy: 60_000,
            vector_busy: 5_000,
            pim_busy: vec![20_000; 32],
            bus_bytes: 50_000_000,
            pim_inbank_bytes: 80_000_000,
            pim_tiles: 2_000,
            pim_gwrites: 300,
            allreduce_cycles: 2_000,
            tokens: 256,
        }
    }

    #[test]
    fn utilization_in_bounds() {
        let cfg = NeuPimsConfig::table2();
        let u = sample().utilization(&cfg);
        for v in [u.npu, u.pim, u.bandwidth, u.npu_stage, u.pim_stage] {
            assert!((0.0..=1.0).contains(&v), "{u:?}");
        }
        // pim busy 20k of 100k -> 20%.
        assert!((u.pim - 0.2).abs() < 1e-9);
    }

    #[test]
    fn tokens_per_sec() {
        let b = sample();
        // 256 tokens in 100k cycles at 1 GHz = 2.56 M tokens/s.
        assert!((b.tokens_per_sec() - 2.56e6).abs() < 1.0);
        assert_eq!(IterationBreakdown::default().tokens_per_sec(), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.total_cycles, 200_000);
        assert_eq!(a.tokens, 512);
        assert_eq!(a.pim_busy[0], 40_000);
    }

    #[test]
    fn dram_activity_bridge() {
        let cfg = NeuPimsConfig::table2();
        let act = sample().dram_activity(&cfg, true);
        assert_eq!(act.cycles, 100_000);
        assert!(act.acts > 0);
        assert!(act.pim_acts > 0);
        assert!(act.refreshes > 0);
        assert!(act.dual_row_buffer);
    }
}
