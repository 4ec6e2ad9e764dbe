//! Algorithm 1: MHA latency estimation.
//!
//! The estimator reproduces the paper's pseudocode line by line, with the
//! tile and GWRITE counts supplied by the Section 6.3 layout
//! ([`KvGeometry`]) and the per-unit latencies (`L_tile`, `L_GWRITE`)
//! calibrated from the cycle model:
//!
//! ```text
//! // GEMV latency for Keyᵀ x Query
//! N_tiles  = (seq_len / B_chnl) * (E / P_DRAM)
//! L_MHA   += L_GWRITE * (E / P_DRAM)
//! L_MHA   += L_tile * N_tiles
//! // GEMV latency for Logits x Value
//! N_tiles  = ((E / N_head) / B_chnl) * ((seq_len / P_DRAM) * N_head)
//! L_MHA   += L_GWRITE * ((seq_len / P_DRAM) * N_head)
//! L_MHA   += L_tile * N_tiles
//! ```

use neupims_kvcache::{KvCounts, KvGeometry};

/// Estimates per-request MHA latency on a PIM channel (Algorithm 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MhaLatencyEstimator {
    geometry: KvGeometry,
    /// The geometry's tile and GWRITE counts, divisors prepared once.
    counts: KvCounts,
    l_tile: f64,
    l_gwrite: f64,
}

impl MhaLatencyEstimator {
    /// Builds the estimator from layout geometry and calibrated latencies.
    pub fn new(geometry: KvGeometry, l_tile: f64, l_gwrite: f64) -> Self {
        Self {
            geometry,
            counts: geometry.counts(),
            l_tile,
            l_gwrite,
        }
    }

    /// The layout geometry in use.
    pub fn geometry(&self) -> &KvGeometry {
        &self.geometry
    }

    /// Calibrated cycles per PIM tile.
    pub fn l_tile(&self) -> f64 {
        self.l_tile
    }

    /// Calibrated cycles per GWRITE.
    pub fn l_gwrite(&self) -> f64 {
        self.l_gwrite
    }

    /// Estimated MHA latency (cycles) of one request with `seq_len` tokens
    /// of context, per decoder layer.
    pub fn estimate(&self, seq_len: u64) -> f64 {
        let g = &self.counts;
        // Keyᵀ x Query.
        let mut l = self.l_gwrite * g.logit_gwrites() as f64;
        l += self.l_tile * g.logit_tiles(seq_len) as f64;
        // Logits x Value.
        l += self.l_gwrite * g.attend_gwrites(seq_len) as f64;
        l += self.l_tile * g.attend_tiles(seq_len) as f64;
        l
    }

    /// Estimated total load (cycles) of a set of co-located requests.
    pub fn estimate_sum(&self, seq_lens: &[u64]) -> f64 {
        seq_lens.iter().map(|&s| self.estimate(s)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neupims_types::{LlmConfig, MemConfig};

    fn estimator() -> MhaLatencyEstimator {
        let geo = KvGeometry::with_tp(&LlmConfig::gpt3_7b(), &MemConfig::table2(), 4);
        MhaLatencyEstimator::new(geo, 280.0, 50.0)
    }

    #[test]
    fn estimate_is_monotone_in_seq_len() {
        let e = estimator();
        let mut prev = 0.0;
        for seq in [1u64, 32, 64, 128, 512, 513, 2048] {
            let est = e.estimate(seq);
            assert!(est >= prev, "seq {seq}: {est} < {prev}");
            prev = est;
        }
    }

    #[test]
    fn estimate_matches_formula() {
        let e = estimator();
        let g = e.geometry();
        let seq = 300;
        let expect = 50.0 * (g.logit_gwrites() + g.attend_gwrites(seq)) as f64
            + 280.0 * (g.logit_tiles(seq) + g.attend_tiles(seq)) as f64;
        assert!((e.estimate(seq) - expect).abs() < 1e-9);
    }

    #[test]
    fn sum_is_additive() {
        let e = estimator();
        let sum = e.estimate_sum(&[100, 200, 300]);
        let direct = e.estimate(100) + e.estimate(200) + e.estimate(300);
        assert!((sum - direct).abs() < 1e-9);
    }

    #[test]
    fn zero_context_costs_only_fixed_gwrites() {
        let e = estimator();
        // seq = 0: no tiles, only the query GWRITE term.
        let est = e.estimate(0);
        assert!((est - 50.0 * e.geometry().logit_gwrites() as f64).abs() < 1e-9);
    }
}
