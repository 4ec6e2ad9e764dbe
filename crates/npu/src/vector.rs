//! Vector-unit cycle costs for the non-GEMM decoder operators.
//!
//! The 8 x 128-lane SIMD vector units serve softmax (inside multi-head
//! attention), layer normalization, GeLU activations, and residual adds.
//! Costs are pass-based: each operator makes a fixed number of sweeps over
//! its elements at `lanes x units` elements per cycle, plus a small
//! per-row reduction overhead.

use neupims_types::{Cycle, Divisor, NpuConfig};

/// Cycle-cost helper for the NPU's vector-unit cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VectorCost {
    /// Elements per cycle across the cluster (`lanes x units`), prepared
    /// once: every sweep divides by it.
    throughput: Divisor,
}

/// Per-row overhead of reductions (max/sum trees, exponent LUT setup).
const ROW_OVERHEAD: u64 = 8;

impl VectorCost {
    /// Builds the helper from the NPU organization.
    ///
    /// # Panics
    ///
    /// Panics if the NPU has no vector lanes.
    pub fn new(npu: &NpuConfig) -> Self {
        Self {
            throughput: Divisor::new(npu.vu_lanes as u64 * npu.vector_units as u64),
        }
    }

    /// Elements processed per cycle across the cluster.
    pub fn throughput(&self) -> u64 {
        self.throughput.get()
    }

    fn sweep(&self, elems: u64, passes: u64) -> Cycle {
        self.throughput.div_ceil(passes * elems)
    }

    /// Softmax over `rows` rows of `len` elements: three passes
    /// (row max, exp + sum, normalize).
    pub fn softmax(&self, rows: u64, len: u64) -> Cycle {
        self.sweep(rows * len, 3) + rows * ROW_OVERHEAD
    }

    /// Layer normalization over `rows` rows of `len` elements: mean,
    /// variance, and scale passes.
    pub fn layernorm(&self, rows: u64, len: u64) -> Cycle {
        self.sweep(rows * len, 3) + rows * ROW_OVERHEAD
    }

    /// GeLU over `elems` elements: one pass through the LUT pipeline.
    pub fn gelu(&self, elems: u64) -> Cycle {
        self.sweep(elems, 1)
    }

    /// Elementwise addition (residual connections): one pass.
    pub fn add(&self, elems: u64) -> Cycle {
        self.sweep(elems, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vc() -> VectorCost {
        VectorCost::new(&NpuConfig::table2())
    }

    #[test]
    fn throughput_matches_table2() {
        assert_eq!(vc().throughput(), 8 * 128);
    }

    #[test]
    fn softmax_cost_scales_linearly() {
        let one = vc().softmax(1, 1024);
        let many = vc().softmax(100, 1024);
        assert!(many > 50 * one, "{many} vs {one}");
        assert!(many < 150 * one);
    }

    #[test]
    fn softmax_cost_grows_with_context() {
        // Short rows are dominated by per-row reduction overhead; very long
        // ones by the element sweeps, which scale linearly.
        let (short, long) = (vc().softmax(8, 64), vc().softmax(8, 4096));
        assert!(long > 2 * short, "{long} vs {short}");
    }

    #[test]
    fn single_element_ops_cost_at_least_one_cycle() {
        assert!(vc().gelu(1) >= 1);
        assert!(vc().add(1) >= 1);
        assert!(vc().softmax(1, 1) >= 1);
    }

    #[test]
    fn sweeps_round_up_at_any_throughput() {
        // The documented formulas, at throughputs that are and are not
        // powers of two.
        for (lanes, units) in [(128, 8), (96, 8), (7, 3), (1, 1)] {
            let npu = NpuConfig {
                vu_lanes: lanes,
                vector_units: units,
                ..NpuConfig::table2()
            };
            let vc = VectorCost::new(&npu);
            let thr = (lanes * units) as u64;
            for len in [1u64, 2, 127, 1000, 1 << 20, (1 << 40) + 3] {
                for rows in [1u64, 8, 40] {
                    let softmax = (3 * rows * len).div_ceil(thr) + 8 * rows;
                    assert_eq!(vc.softmax(rows, len), softmax, "{lanes}x{units}");
                    assert_eq!(vc.layernorm(rows, len), softmax, "{lanes}x{units}");
                }
                assert_eq!(vc.gelu(len), len.div_ceil(thr));
                assert_eq!(vc.add(len), len.div_ceil(thr));
            }
        }
    }

    #[test]
    fn three_pass_ops_cost_more_than_one_pass() {
        let elems = 128 * 1024;
        assert!(vc().softmax(1, elems) > vc().gelu(elems));
        assert!(vc().layernorm(1, elems) > vc().add(elems));
    }
}
