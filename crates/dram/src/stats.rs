//! Event counters collected by the channel model.
//!
//! The counters are the inputs of the Micron-style power model in
//! `neupims-power` (ACT/PRE/RD/WR/REF counts and busy windows) and of the
//! bandwidth-utilization rows of Table 4.

use neupims_types::{Bytes, Cycle};

/// Per-channel command and traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Row activations into the MEM row buffer.
    pub acts: u64,
    /// Row activations into the PIM row buffer.
    pub pim_acts: u64,
    /// Read bursts issued.
    pub reads: u64,
    /// Write bursts issued.
    pub writes: u64,
    /// Precharges of the MEM row buffer (incl. precharge-all expansions).
    pub precharges: u64,
    /// Precharges of the PIM row buffer (the paper's `PIM_PRECHARGE`).
    pub pim_precharges: u64,
    /// All-bank refreshes.
    pub refreshes: u64,
    /// Bytes moved over the external bus by reads.
    pub bytes_read: Bytes,
    /// Bytes moved over the external bus by writes.
    pub bytes_written: Bytes,
    /// Cycles the external data bus carried a burst.
    pub data_bus_busy: Cycle,
    /// Cycles the command/address bus carried a command.
    pub ca_busy: Cycle,
    /// Transactions served from an already-open row.
    pub row_hits: u64,
    /// Transactions that required an activate (and possibly a precharge).
    pub row_misses: u64,
}

impl ChannelStats {
    /// Row-buffer hit rate over transactions, in `[0, 1]`.
    ///
    /// Returns 0 when no transaction has completed yet.
    pub fn hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Merges counters from another window (e.g. summing across channels).
    pub fn merge(&mut self, other: &ChannelStats) {
        self.acts += other.acts;
        self.pim_acts += other.pim_acts;
        self.reads += other.reads;
        self.writes += other.writes;
        self.precharges += other.precharges;
        self.pim_precharges += other.pim_precharges;
        self.refreshes += other.refreshes;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.data_bus_busy += other.data_bus_busy;
        self.ca_busy += other.ca_busy;
        self.row_hits += other.row_hits;
        self.row_misses += other.row_misses;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_empty() {
        assert_eq!(ChannelStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn hit_rate_and_totals() {
        let s = ChannelStats {
            row_hits: 3,
            row_misses: 1,
            bytes_read: 100,
            bytes_written: 28,
            ..Default::default()
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = ChannelStats {
            acts: 1,
            reads: 2,
            ..Default::default()
        };
        let b = ChannelStats {
            acts: 10,
            reads: 20,
            refreshes: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.acts, 11);
        assert_eq!(a.reads, 22);
        assert_eq!(a.refreshes, 1);
    }
}
