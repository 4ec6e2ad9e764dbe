//! Hardware and model configuration structures with the paper's presets.
//!
//! [`NeuPimsConfig::table2`] reproduces the prototype hardware of Table 2,
//! [`LlmConfig::gpt3_7b`] .. [`LlmConfig::gpt3_175b`] reproduce the model
//! zoo of Table 3, and [`GpuSpec::a100`] / [`GpuSpec::rtx3090`] carry the
//! GPU parameters used by the motivation study (Figure 5) and the GPU-only
//! baseline of Figure 12.

use serde::{Deserialize, Serialize};

use crate::error::SimError;
use crate::units::{Bytes, DataType};

/// HBM timing parameters in memory-clock cycles (Table 2, 1 GHz clock).
///
/// Fields not listed in Table 2 (CAS latency, write latency, burst length,
/// read-to-precharge) are filled with standard HBM2 values and documented
/// here so the cycle model is fully specified.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HbmTiming {
    /// Row precharge time.
    pub t_rp: u64,
    /// Row-to-column (activate-to-read/write) delay.
    pub t_rcd: u64,
    /// Minimum row-active time (activate to precharge).
    pub t_ras: u64,
    /// Activate-to-activate delay, same bank group.
    pub t_rrd_l: u64,
    /// Write recovery time (end of write burst to precharge).
    pub t_wr: u64,
    /// Column-to-column delay, different bank group.
    pub t_ccd_s: u64,
    /// Column-to-column delay, same bank group.
    pub t_ccd_l: u64,
    /// Average refresh interval (one REF command per window).
    pub t_refi: u64,
    /// Refresh cycle time (duration of an all-bank refresh).
    pub t_rfc: u64,
    /// Four-activate window: at most 4 ACTs may issue in any window.
    pub t_faw: u64,
    /// CAS latency (read command to first data). HBM2 default: 14.
    pub t_cl: u64,
    /// Write latency (write command to first data). HBM2 default: 4.
    pub t_cwl: u64,
    /// Burst length in cycles (BL4 on a DDR bus: 2 clock cycles).
    pub t_bl: u64,
    /// Read-to-precharge delay. HBM2 default: 4.
    pub t_rtp: u64,
}

impl HbmTiming {
    /// The exact Table 2 timing set (unspecified fields get HBM2 defaults).
    pub const fn table2() -> Self {
        Self {
            t_rp: 14,
            t_rcd: 14,
            t_ras: 34,
            t_rrd_l: 6,
            t_wr: 16,
            t_ccd_s: 1,
            t_ccd_l: 2,
            t_refi: 3900,
            t_rfc: 260,
            t_faw: 30,
            t_cl: 14,
            t_cwl: 4,
            t_bl: 2,
            t_rtp: 4,
        }
    }

    /// Row cycle time: minimum delay between two ACTs to the *same* bank.
    pub const fn t_rc(&self) -> u64 {
        self.t_ras + self.t_rp
    }
}

impl Default for HbmTiming {
    fn default() -> Self {
        Self::table2()
    }
}

/// Organization of the HBM (PIM) memory attached to one NeuPIMs device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemConfig {
    /// Number of independent HBM/PIM channels (Table 2: 32).
    pub channels: u32,
    /// Banks per channel (Table 2: 32).
    pub banks_per_channel: u32,
    /// Banks per bank group (Table 2: 4).
    pub banks_per_bankgroup: u32,
    /// Usable capacity per channel in bytes (Table 2: 1 GB).
    pub capacity_per_channel: Bytes,
    /// DRAM page (row) size in bytes (Table 2: 1 KB).
    pub page_bytes: Bytes,
    /// Data-bus width of one channel in bytes transferred per memory-clock
    /// cycle (128-bit DDR bus at the 1 GHz command clock: 32 B/cycle).
    pub bus_bytes_per_cycle: Bytes,
}

impl MemConfig {
    /// The Table 2 memory organization.
    pub const fn table2() -> Self {
        Self {
            channels: 32,
            banks_per_channel: 32,
            banks_per_bankgroup: 4,
            capacity_per_channel: 1 << 30,
            page_bytes: 1 << 10,
            bus_bytes_per_cycle: 32,
        }
    }

    /// Number of bank groups per channel.
    pub const fn bankgroups(&self) -> u32 {
        self.banks_per_channel / self.banks_per_bankgroup
    }

    /// Rows per bank implied by capacity, banks, and page size.
    pub const fn rows_per_bank(&self) -> u64 {
        self.capacity_per_channel / (self.banks_per_channel as u64 * self.page_bytes)
    }

    /// Peak external (host-side) bandwidth of the whole device in bytes per
    /// cycle (all channels combined).
    pub const fn peak_bw_bytes_per_cycle(&self) -> u64 {
        self.bus_bytes_per_cycle * self.channels as u64
    }

    /// Elements of `dtype` held by one DRAM page.
    pub const fn page_elems(&self, dtype: DataType) -> u64 {
        self.page_bytes / dtype.size_bytes()
    }
}

impl Default for MemConfig {
    fn default() -> Self {
        Self::table2()
    }
}

/// NPU organization of one NeuPIMs device (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NpuConfig {
    /// Number of systolic arrays per chip (Table 2: 8).
    pub systolic_arrays: u32,
    /// Rows of each systolic array (Table 2: 128).
    pub sa_rows: u32,
    /// Columns of each systolic array (Table 2: 128).
    pub sa_cols: u32,
    /// Number of SIMD vector units per chip (Table 2: 8).
    pub vector_units: u32,
    /// Lanes per vector unit (Table 2: 128 x 1).
    pub vu_lanes: u32,
    /// On-chip scratchpad (SPM) bytes available for double buffering.
    ///
    /// ONNXim-class NPUs carry tens of MB of SPM; we default to 32 MiB.
    pub spm_bytes: Bytes,
}

impl NpuConfig {
    /// The Table 2 NPU organization.
    pub const fn table2() -> Self {
        Self {
            systolic_arrays: 8,
            sa_rows: 128,
            sa_cols: 128,
            vector_units: 8,
            vu_lanes: 128,
            spm_bytes: 32 << 20,
        }
    }

    /// Peak MAC throughput in multiply-accumulates per cycle (all arrays).
    pub const fn peak_macs_per_cycle(&self) -> u64 {
        self.systolic_arrays as u64 * self.sa_rows as u64 * self.sa_cols as u64
    }

    /// Peak FLOP throughput per cycle (1 MAC = 2 FLOPs).
    pub const fn peak_flops_per_cycle(&self) -> u64 {
        2 * self.peak_macs_per_cycle()
    }
}

impl Default for NpuConfig {
    fn default() -> Self {
        Self::table2()
    }
}

/// PIM datapath parameters of the Newton-style in-bank GEMV units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PimConfig {
    /// Multiply-accumulate lanes per bank. Newton computes a 16-element
    /// partial dot product per column command (one 32 B burst of fp16).
    pub lanes_per_bank: u32,
    /// Capacity of the per-channel global vector buffer in bytes.
    ///
    /// Must hold one operand vector (up to one page).
    pub gvb_bytes: Bytes,
    /// Number of banks activated together by one grouped PIM_ACTIVATE
    /// (power-limited to 4 by tFAW, per Section 5.2).
    pub act_group: u32,
}

impl PimConfig {
    /// Newton-like defaults matching the paper's description.
    pub const fn newton() -> Self {
        Self {
            lanes_per_bank: 16,
            gvb_bytes: 2 << 10,
            act_group: 4,
        }
    }
}

impl Default for PimConfig {
    fn default() -> Self {
        Self::newton()
    }
}

/// Interconnect parameters of the multi-device NeuPIMs system (Section 7).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InterconnectConfig {
    /// Point-to-point link bandwidth between devices in bytes per cycle.
    ///
    /// The paper connects devices with "PCIe and CXL"-class high-bandwidth
    /// links; we default to 128 GB/s = 128 B/cycle at 1 GHz (aggregated
    /// CXL 3.x / PCIe 6 x16-class).
    pub link_bytes_per_cycle: u64,
    /// One-way link latency in cycles.
    pub link_latency: u64,
}

impl InterconnectConfig {
    /// PCIe/CXL-class default link.
    pub const fn pcie_cxl() -> Self {
        Self {
            link_bytes_per_cycle: 128,
            link_latency: 500,
        }
    }
}

impl Default for InterconnectConfig {
    fn default() -> Self {
        Self::pcie_cxl()
    }
}

/// Complete hardware description of one NeuPIMs device plus its system links.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct NeuPimsConfig {
    /// NPU organization.
    pub npu: NpuConfig,
    /// HBM organization.
    pub mem: MemConfig,
    /// HBM timing parameters.
    pub timing: HbmTiming,
    /// PIM datapath parameters.
    pub pim: PimConfig,
    /// Inter-device interconnect.
    pub interconnect: InterconnectConfig,
}

impl NeuPimsConfig {
    /// The complete Table 2 prototype configuration.
    pub const fn table2() -> Self {
        Self {
            npu: NpuConfig::table2(),
            mem: MemConfig::table2(),
            timing: HbmTiming::table2(),
            pim: PimConfig::newton(),
            interconnect: InterconnectConfig::pcie_cxl(),
        }
    }

    /// Checks internal consistency of the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when a structural invariant fails
    /// (zero-sized structures, bank-group mismatch, GVB smaller than a page).
    pub fn validate(&self) -> Result<(), SimError> {
        if self.mem.channels == 0 || self.mem.banks_per_channel == 0 {
            return Err(SimError::InvalidConfig(
                "memory must have at least one channel and bank".into(),
            ));
        }
        if self.mem.banks_per_bankgroup == 0
            || !self
                .mem
                .banks_per_channel
                .is_multiple_of(self.mem.banks_per_bankgroup)
        {
            return Err(SimError::InvalidConfig(format!(
                "banks per channel ({}) must be a multiple of banks per bank group ({})",
                self.mem.banks_per_channel, self.mem.banks_per_bankgroup
            )));
        }
        if self.mem.page_bytes == 0 || !self.mem.page_bytes.is_power_of_two() {
            return Err(SimError::InvalidConfig(
                "page size must be a non-zero power of two".into(),
            ));
        }
        if self.mem.rows_per_bank() == 0 {
            return Err(SimError::InvalidConfig(
                "per-channel capacity too small for one row per bank".into(),
            ));
        }
        if self.npu.systolic_arrays == 0 || self.npu.sa_rows == 0 || self.npu.sa_cols == 0 {
            return Err(SimError::InvalidConfig(
                "NPU must have at least one non-empty systolic array".into(),
            ));
        }
        if self.npu.vector_units == 0 || self.npu.vu_lanes == 0 {
            return Err(SimError::InvalidConfig(
                "NPU must have at least one non-empty vector unit".into(),
            ));
        }
        if self.pim.gvb_bytes < self.mem.page_bytes {
            return Err(SimError::InvalidConfig(
                "global vector buffer must hold at least one DRAM page".into(),
            ));
        }
        if self.pim.act_group == 0 || self.pim.lanes_per_bank == 0 {
            return Err(SimError::InvalidConfig(
                "PIM activation group and lane count must be non-zero".into(),
            ));
        }
        Ok(())
    }
}

/// Tensor/pipeline parallel degrees used to shard a model (Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParallelismConfig {
    /// Tensor-parallel degree (shards every weight matrix).
    pub tp: u32,
    /// Pipeline-parallel degree (shards layers into stages).
    pub pp: u32,
}

impl ParallelismConfig {
    /// Creates a parallelism configuration.
    pub const fn new(tp: u32, pp: u32) -> Self {
        Self { tp, pp }
    }

    /// Total number of devices required.
    pub const fn devices(&self) -> u32 {
        self.tp * self.pp
    }
}

impl Default for ParallelismConfig {
    fn default() -> Self {
        Self::new(1, 1)
    }
}

/// A decoder-only transformer configuration (Table 3 plus Figure 5 models).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LlmConfig {
    /// Human-readable model name (e.g. `"GPT3-13B"`).
    pub name: String,
    /// Number of decoder blocks.
    pub num_layers: u32,
    /// Number of attention heads.
    pub num_heads: u32,
    /// Embedding (model) dimension.
    pub d_model: u32,
    /// Feed-forward hidden dimension (GPT-3 family: `4 * d_model`).
    pub d_ff: u32,
    /// Default tensor/pipeline parallelism from Table 3.
    pub parallelism: ParallelismConfig,
    /// Weight/activation element type.
    pub dtype: DataType,
}

impl LlmConfig {
    fn gpt3(name: &str, layers: u32, heads: u32, d_model: u32, tp: u32, pp: u32) -> Self {
        Self {
            name: name.to_owned(),
            num_layers: layers,
            num_heads: heads,
            d_model,
            d_ff: 4 * d_model,
            parallelism: ParallelismConfig::new(tp, pp),
            dtype: DataType::Fp16,
        }
    }

    /// GPT3-7B (Table 3: 32 layers, 32 heads, d=4096, TP=4, PP=1).
    pub fn gpt3_7b() -> Self {
        Self::gpt3("GPT3-7B", 32, 32, 4096, 4, 1)
    }

    /// GPT3-13B (Table 3: 40 layers, 40 heads, d=5120, TP=4, PP=1).
    pub fn gpt3_13b() -> Self {
        Self::gpt3("GPT3-13B", 40, 40, 5120, 4, 1)
    }

    /// GPT3-30B (Table 3: 48 layers, 56 heads, d=7168, TP=4, PP=2).
    pub fn gpt3_30b() -> Self {
        Self::gpt3("GPT3-30B", 48, 56, 7168, 4, 2)
    }

    /// GPT3-175B (Table 3: 96 layers, 96 heads, d=12288, TP=8, PP=4).
    pub fn gpt3_175b() -> Self {
        Self::gpt3("GPT3-175B", 96, 96, 12288, 8, 4)
    }

    /// The four Table 3 models in paper order.
    pub fn table3() -> Vec<Self> {
        vec![
            Self::gpt3_7b(),
            Self::gpt3_13b(),
            Self::gpt3_30b(),
            Self::gpt3_175b(),
        ]
    }

    /// GPT-NeoX-20B, used by the Figure 5 motivation study.
    pub fn gpt_neox_20b() -> Self {
        Self::gpt3("GPT-NeoX-20B", 44, 64, 6144, 2, 1)
    }

    /// LLaMA2-13B, used by the Figure 5 motivation study.
    pub fn llama2_13b() -> Self {
        Self::gpt3("LLaMA2-13B", 40, 40, 5120, 2, 1)
    }

    /// OPT-30B, used by the Figure 5 motivation study.
    pub fn opt_30b() -> Self {
        Self::gpt3("OPT-30B", 48, 56, 7168, 2, 1)
    }

    /// MPT-30B, used by the Figure 5 motivation study.
    pub fn mpt_30b() -> Self {
        Self::gpt3("MPT-30B", 48, 64, 7168, 2, 1)
    }

    /// Head dimension (`d_model / num_heads`).
    pub fn d_head(&self) -> u32 {
        self.d_model / self.num_heads
    }

    /// Parameters in one decoder block: QKV (3 d^2) + output projection
    /// (d^2) + FFN (2 * d * d_ff), ignoring small bias/layernorm terms.
    fn params_per_layer(&self) -> u64 {
        let d = self.d_model as u64;
        let ff = self.d_ff as u64;
        4 * d * d + 2 * d * ff
    }

    /// Total decoder parameters of the model.
    pub fn total_params(&self) -> u64 {
        self.params_per_layer() * self.num_layers as u64
    }

    /// Bytes of weights in one decoder block at the model's dtype.
    pub fn weight_bytes_per_layer(&self) -> Bytes {
        self.params_per_layer() * self.dtype.size_bytes()
    }

    /// KV-cache bytes appended per token per layer (K and V vectors).
    pub fn kv_bytes_per_token_layer(&self) -> Bytes {
        2 * self.d_model as u64 * self.dtype.size_bytes()
    }

    /// KV-cache bytes appended per token across all layers.
    pub fn kv_bytes_per_token(&self) -> Bytes {
        self.kv_bytes_per_token_layer() * self.num_layers as u64
    }

    /// Checks structural validity of the model description.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when a dimension is zero or
    /// `d_model` is not divisible by `num_heads`.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.num_layers == 0 || self.num_heads == 0 || self.d_model == 0 || self.d_ff == 0 {
            return Err(SimError::InvalidConfig(format!(
                "model {} has a zero dimension",
                self.name
            )));
        }
        if !self.d_model.is_multiple_of(self.num_heads) {
            return Err(SimError::InvalidConfig(format!(
                "model {}: d_model {} not divisible by heads {}",
                self.name, self.d_model, self.num_heads
            )));
        }
        if self.parallelism.tp == 0 || self.parallelism.pp == 0 {
            return Err(SimError::InvalidConfig(format!(
                "model {} has zero parallelism degree",
                self.name
            )));
        }
        if !self.num_layers.is_multiple_of(self.parallelism.pp) {
            return Err(SimError::InvalidConfig(format!(
                "model {}: layers {} not divisible by PP {}",
                self.name, self.num_layers, self.parallelism.pp
            )));
        }
        if !self.num_heads.is_multiple_of(self.parallelism.tp) {
            return Err(SimError::InvalidConfig(format!(
                "model {}: heads {} not divisible by TP {}",
                self.name, self.num_heads, self.parallelism.tp
            )));
        }
        Ok(())
    }
}

/// Peak-rate description of a discrete GPU, for the motivation study and the
/// GPU-only baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuSpec {
    /// Marketing name of the part.
    pub name: String,
    /// Peak dense fp16 tensor throughput in FLOP/s.
    pub peak_fp16_flops: f64,
    /// Peak memory bandwidth in bytes per second.
    pub mem_bw_bytes_per_sec: f64,
    /// Device memory capacity in bytes.
    pub capacity: Bytes,
}

impl GpuSpec {
    /// NVIDIA A100 40 GB (312 TFLOPS dense fp16, 1555 GB/s HBM2e).
    pub fn a100() -> Self {
        Self {
            name: "A100-40GB".into(),
            peak_fp16_flops: 312e12,
            mem_bw_bytes_per_sec: 1555e9,
            capacity: 40 * (1 << 30),
        }
    }

    /// NVIDIA GeForce RTX 3090 24 GB (142 TFLOPS dense fp16 tensor, 936 GB/s).
    pub fn rtx3090() -> Self {
        Self {
            name: "RTX3090-24GB".into(),
            peak_fp16_flops: 142e12,
            mem_bw_bytes_per_sec: 936e9,
            capacity: 24 * (1 << 30),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_matches_paper() {
        let t = HbmTiming::table2();
        assert_eq!(t.t_rp, 14);
        assert_eq!(t.t_rcd, 14);
        assert_eq!(t.t_ras, 34);
        assert_eq!(t.t_rrd_l, 6);
        assert_eq!(t.t_wr, 16);
        assert_eq!(t.t_ccd_s, 1);
        assert_eq!(t.t_ccd_l, 2);
        assert_eq!(t.t_refi, 3900);
        assert_eq!(t.t_rfc, 260);
        assert_eq!(t.t_faw, 30);
        assert_eq!(t.t_rc(), 48);

        let m = MemConfig::table2();
        assert_eq!(m.channels, 32);
        assert_eq!(m.banks_per_channel, 32);
        assert_eq!(m.banks_per_bankgroup, 4);
        assert_eq!(m.bankgroups(), 8);
        assert_eq!(m.capacity_per_channel, 1 << 30);
        assert_eq!(m.page_bytes, 1024);
        assert_eq!(m.rows_per_bank(), 32 * 1024);

        let n = NpuConfig::table2();
        assert_eq!(n.systolic_arrays, 8);
        assert_eq!(n.sa_rows, 128);
        assert_eq!(n.vector_units, 8);
        assert_eq!(n.peak_macs_per_cycle(), 8 * 128 * 128);
        assert_eq!(n.peak_flops_per_cycle(), 2 * 8 * 128 * 128);
    }

    #[test]
    fn table2_validates() {
        NeuPimsConfig::table2().validate().unwrap();
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = NeuPimsConfig::table2();
        c.mem.channels = 0;
        assert!(c.validate().is_err());

        let mut c = NeuPimsConfig::table2();
        c.mem.banks_per_bankgroup = 5;
        assert!(c.validate().is_err());

        let mut c = NeuPimsConfig::table2();
        c.mem.page_bytes = 1000; // not a power of two
        assert!(c.validate().is_err());

        let mut c = NeuPimsConfig::table2();
        c.pim.gvb_bytes = 512;
        assert!(c.validate().is_err());

        let mut c = NeuPimsConfig::table2();
        c.npu.systolic_arrays = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn table3_matches_paper() {
        let models = LlmConfig::table3();
        let expect: [(&str, u32, u32, u32, u32, u32); 4] = [
            ("GPT3-7B", 32, 32, 4096, 4, 1),
            ("GPT3-13B", 40, 40, 5120, 4, 1),
            ("GPT3-30B", 48, 56, 7168, 4, 2),
            ("GPT3-175B", 96, 96, 12288, 8, 4),
        ];
        for (m, (name, l, h, d, tp, pp)) in models.iter().zip(expect) {
            assert_eq!(m.name, name);
            assert_eq!(m.num_layers, l);
            assert_eq!(m.num_heads, h);
            assert_eq!(m.d_model, d);
            assert_eq!(m.parallelism.tp, tp);
            assert_eq!(m.parallelism.pp, pp);
            m.validate().unwrap();
        }
    }

    #[test]
    fn parameter_counts_land_near_nameplates() {
        // 12 * d^2 * L should land within ~15% of the nameplate size
        // (embeddings and biases are excluded).
        let close = |model: LlmConfig, nameplate: f64| {
            let p = model.total_params() as f64;
            let rel = (p - nameplate).abs() / nameplate;
            assert!(rel < 0.18, "{}: {p:.3e} vs {nameplate:.3e}", model.name);
        };
        close(LlmConfig::gpt3_7b(), 6.7e9);
        close(LlmConfig::gpt3_13b(), 13e9);
        close(LlmConfig::gpt3_30b(), 30e9);
        close(LlmConfig::gpt3_175b(), 175e9);
    }

    #[test]
    fn kv_bytes_formula() {
        let m = LlmConfig::gpt3_7b();
        // 2 (K,V) * 4096 * 2 bytes = 16 KiB per token per layer.
        assert_eq!(m.kv_bytes_per_token_layer(), 16 << 10);
        assert_eq!(m.kv_bytes_per_token(), (16 << 10) * 32);
        assert_eq!(m.d_head(), 128);
    }

    #[test]
    fn model_validation_catches_bad_shapes() {
        let mut m = LlmConfig::gpt3_7b();
        m.num_heads = 33; // 4096 % 33 != 0
        assert!(m.validate().is_err());

        let mut m = LlmConfig::gpt3_7b();
        m.parallelism.pp = 5; // 32 % 5 != 0
        assert!(m.validate().is_err());

        let mut m = LlmConfig::gpt3_7b();
        m.d_model = 0;
        assert!(m.validate().is_err());
    }

    #[test]
    fn fig5_models_validate() {
        for m in [
            LlmConfig::gpt_neox_20b(),
            LlmConfig::llama2_13b(),
            LlmConfig::opt_30b(),
            LlmConfig::mpt_30b(),
        ] {
            m.validate().unwrap();
        }
    }

    #[test]
    fn gpu_specs() {
        let a = GpuSpec::a100();
        assert!(a.peak_fp16_flops > 3e14);
        assert!(a.mem_bw_bytes_per_sec > 1.5e12);
        let r = GpuSpec::rtx3090();
        assert!(r.capacity < a.capacity);
    }

    #[test]
    fn parallelism_devices() {
        assert_eq!(ParallelismConfig::new(8, 4).devices(), 32);
        assert_eq!(ParallelismConfig::default().devices(), 1);
    }
}
