//! GEMM tiling over the systolic cluster.
//!
//! A GEMM `C[m,n] = A[m,k] x B[k,n]` decomposes into `ceil(k/128) *
//! ceil(n/128)` weight tiles. Tiles are distributed round-robin over the 8
//! arrays; each array streams all `m` activation rows per tile it owns.
//! The plan also reports the DRAM traffic the GEMM generates (weights and
//! activations in, outputs back), which the system model turns into memory
//! flows contending for channel bandwidth.

use neupims_types::{Bytes, Cycle, DataType, NpuConfig, SimError};

use crate::systolic::SystolicCost;

/// Cost summary of one GEMM on the NPU cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GemmPlan {
    /// Activation rows (batch/token dimension).
    pub m: u64,
    /// Contraction dimension.
    pub k: u64,
    /// Output dimension.
    pub n: u64,
    /// Useful floating-point operations (2 per MAC).
    pub flops: u64,
    /// Cycles the systolic cluster is occupied.
    pub compute_cycles: Cycle,
    /// Weight bytes read from DRAM (each weight once).
    pub weight_bytes: Bytes,
    /// Activation input bytes read from DRAM/SPM spill.
    pub in_bytes: Bytes,
    /// Output bytes written back.
    pub out_bytes: Bytes,
    /// Achieved fraction of cluster peak MACs, in `(0, 1]`.
    pub efficiency: f64,
}

/// Plans a GEMM over the cluster.
///
/// # Errors
///
/// Returns [`SimError::InvalidShape`] when any dimension is zero.
pub fn plan_gemm(
    npu: &NpuConfig,
    m: u64,
    k: u64,
    n: u64,
    dtype: DataType,
) -> Result<GemmPlan, SimError> {
    if m == 0 || k == 0 || n == 0 {
        return Err(SimError::InvalidShape(format!(
            "GEMM with zero dimension: {m}x{k}x{n}"
        )));
    }
    let sa = SystolicCost::new(npu);
    let w_tiles = k.div_ceil(sa.rows()) * n.div_ceil(sa.cols());

    // Tiles round-robin over arrays; the busiest array's rounds bound the
    // pass. Each round costs a full-K tile, or K itself when it fits in
    // one tile.
    let rounds = w_tiles.div_ceil(sa.arrays());
    let compute_cycles = rounds * sa.tile_cycles(m, k.min(sa.rows())) + sa.pass_overhead();

    let es = dtype.size_bytes();
    let flops = 2 * m * k * n;
    let peak = sa.peak_macs_per_cycle();
    let efficiency = (m * k * n) as f64 / (compute_cycles * peak) as f64;

    Ok(GemmPlan {
        m,
        k,
        n,
        flops,
        compute_cycles,
        weight_bytes: k * n * es,
        in_bytes: m * k * es,
        out_bytes: m * n * es,
        efficiency: efficiency.min(1.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn npu() -> NpuConfig {
        NpuConfig::table2()
    }

    #[test]
    fn zero_dims_rejected() {
        assert!(plan_gemm(&npu(), 0, 128, 128, DataType::Fp16).is_err());
        assert!(plan_gemm(&npu(), 128, 0, 128, DataType::Fp16).is_err());
        assert!(plan_gemm(&npu(), 128, 128, 0, DataType::Fp16).is_err());
    }

    #[test]
    fn flops_and_traffic_accounting() {
        let p = plan_gemm(&npu(), 256, 4096, 12288, DataType::Fp16).unwrap();
        assert_eq!(p.flops, 2 * 256 * 4096 * 12288);
        assert_eq!(p.weight_bytes, 4096 * 12288 * 2);
        assert_eq!(p.in_bytes, 256 * 4096 * 2);
        assert_eq!(p.out_bytes, 256 * 12288 * 2);
    }

    #[test]
    fn large_batch_is_efficient_small_batch_is_not() {
        let big = plan_gemm(&npu(), 512, 4096, 4096, DataType::Fp16).unwrap();
        let small = plan_gemm(&npu(), 32, 4096, 4096, DataType::Fp16).unwrap();
        assert!(big.efficiency > 0.75, "big {}", big.efficiency);
        assert!(small.efficiency < 0.35, "small {}", small.efficiency);
        assert!(big.efficiency > 2.0 * small.efficiency);
    }

    #[test]
    fn efficiency_bounded() {
        for (m, k, n) in [(1, 1, 1), (128, 128, 128), (1000, 5000, 7000)] {
            let p = plan_gemm(&npu(), m, k, n, DataType::Fp16).unwrap();
            assert!(p.efficiency > 0.0 && p.efficiency <= 1.0, "{p:?}");
        }
    }

    #[test]
    fn compute_scales_with_work() {
        let small = plan_gemm(&npu(), 256, 1024, 1024, DataType::Fp16).unwrap();
        let quad = plan_gemm(&npu(), 256, 2048, 2048, DataType::Fp16).unwrap();
        // 4x the weight tiles: between 2x and 6x the cycles.
        assert!(quad.compute_cycles > 2 * small.compute_cycles);
        assert!(quad.compute_cycles < 6 * small.compute_cycles);
    }

    #[test]
    fn gemv_degenerates_gracefully() {
        // m = 1 (pure GEMV): the NPU runs it, just very inefficiently —
        // this is the Figure 4 memory-bound regime.
        let p = plan_gemm(&npu(), 1, 4096, 4096, DataType::Fp16).unwrap();
        assert!(
            p.efficiency < 0.02,
            "GEMV must be inefficient: {}",
            p.efficiency
        );
    }
}
