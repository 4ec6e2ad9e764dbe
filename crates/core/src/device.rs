//! One accelerator device executing batched decode iterations.
//!
//! [`Device::decode_iteration`] prices one generation-phase iteration (one
//! token per batched request through all resident decoder layers) under a
//! [`DeviceMode`]:
//!
//! * **`NpuOnly`** — MHA runs on the NPU as bandwidth-bound GEMV: every
//!   K/V byte crosses the external bus. Stages serialize per layer.
//! * **`NaiveNpuPim`** — MHA offloads to blocked-mode PIM (Newton command
//!   style, round-robin channel assignment). While PIM computes, the
//!   channel serves no MEM traffic; each head's logit GEMV must drain to
//!   the vector units, be softmaxed, and be written back before the attend
//!   GEMV starts — a per-head turnaround that serializes with the GEMV
//!   stream (Figure 6's idle seesaw). No weight prefetch is possible.
//! * **`NeuPims`** — dual row buffers let MEM traffic flow during PIM
//!   execution (at the calibrated shared-bandwidth fraction), softmax and
//!   result transfers overlap the GEMVs head-by-head (Figure 10), weights
//!   prefetch into SPM during MHA, and optionally:
//!   - `gmlbp`: Algorithm 2 channel balancing instead of round-robin,
//!   - `sbi`: sub-batch interleaving (Algorithm 3 + the Figure 11(b)
//!     pipeline), with an [`SbiPolicy`] of always-on (the paper's ablation
//!     arm) or adaptive (skip splitting when the estimate says it loses —
//!     our scheduler refinement, flagged in DESIGN.md).
//!
//! # Timing models
//!
//! Serial modes price a layer as the sum of dependent stages, each
//! `max(compute, bytes / bandwidth)` at the solo streaming bandwidth (PIM
//! is idle while the NPU stages run). Sub-batch interleaving prices the
//! steady state by the pipeline bottleneck law — the slowest of the NPU
//! compute demand, external-bus demand (at the shared bandwidth, since PIM
//! runs throughout), per-channel PIM demand, vector demand, and
//! interconnect demand per layer — plus one serial layer of fill/drain
//! (the paper's `(N-1) x steady + 1 x serial` structure). Weight
//! re-streaming under SBI is explicit: adjacent same-stage pairs reuse at
//! most the SPM-resident fraction of their weights, so small batches pay
//! the doubled traffic that makes SBI unprofitable below the Figure 13
//! crossover.

use std::cell::Cell;
use std::sync::OnceLock;

use neupims_kvcache::KvGeometry;
use neupims_llm::heads_per_device;
use neupims_npu::VectorCost;
use neupims_pim::{calibrate, PimCalibration};
use neupims_sched::{
    CostModelKind, MhaCostModel, MhaLatencyEstimator, MinLoadPacker, SubBatchSides,
    TraceDrivenCostModel, TraceHardware, TraceMemo,
};
use neupims_types::{ChannelId, LlmConfig, NeuPimsConfig, SimError};

use crate::interconnect::{Interconnect, PcieLink};
use crate::lowering::{BlockLowering, BlockMemo};
use crate::metrics::IterationBreakdown;
use crate::scratch::Lent;

/// Sub-batch interleaving policy of the NeuPIMs scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SbiPolicy {
    /// Never split the batch.
    Off,
    /// Always split (the paper's `+SBI` ablation arm — pays the small-batch
    /// penalty Figure 13 shows below the crossover).
    Always,
    /// Split only when the interleaved estimate beats the serial one (our
    /// refinement; the estimates reuse Algorithm 1's own constants).
    Adaptive,
}

/// Execution mode of a device — the comparison axes of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceMode {
    /// NPU without PIM: MHA as bandwidth-bound GEMV over the external bus.
    NpuOnly,
    /// Blocked-mode PIM bolted onto the NPU (round-robin channels, Newton
    /// command style, full serialization).
    NaiveNpuPim,
    /// The NeuPIMs device: dual row buffers always on, scheduling knobs
    /// selectable for the Figure 13 ablation.
    NeuPims {
        /// Greedy min-load bin packing (Algorithm 2) instead of round-robin.
        gmlbp: bool,
        /// Sub-batch interleaving policy.
        sbi: SbiPolicy,
    },
}

impl DeviceMode {
    /// The full NeuPIMs configuration (GMLBP + adaptive SBI).
    pub fn neupims() -> Self {
        DeviceMode::NeuPims {
            gmlbp: true,
            sbi: SbiPolicy::Adaptive,
        }
    }

    /// Whether MHA executes on PIM in this mode.
    pub fn uses_pim(&self) -> bool {
        !matches!(self, DeviceMode::NpuOnly)
    }

    /// Whether banks carry dual row buffers.
    pub fn dual_row_buffer(&self) -> bool {
        matches!(self, DeviceMode::NeuPims { .. })
    }

    /// Display label used by the experiment harness.
    pub fn label(&self) -> &'static str {
        match self {
            DeviceMode::NpuOnly => "NPU-only",
            DeviceMode::NaiveNpuPim => "NPU+PIM",
            DeviceMode::NeuPims {
                gmlbp: false,
                sbi: SbiPolicy::Off,
            } => "NeuPIMs-DRB",
            DeviceMode::NeuPims {
                gmlbp: true,
                sbi: SbiPolicy::Off,
            } => "NeuPIMs-DRB+GMLBP",
            DeviceMode::NeuPims {
                gmlbp: true,
                sbi: SbiPolicy::Always,
            } => "NeuPIMs-DRB+GMLBP+SBI",
            DeviceMode::NeuPims {
                sbi: SbiPolicy::Adaptive,
                ..
            } => "NeuPIMs",
            DeviceMode::NeuPims { .. } => "NeuPIMs-variant",
        }
    }
}

/// One simulated accelerator device.
#[derive(Debug, Clone)]
pub struct Device {
    cfg: NeuPimsConfig,
    cal: PimCalibration,
    mode: DeviceMode,
    /// Which MHA cost model prices PIM GEMV work (Algorithm 1 closed form
    /// by default; trace-driven replays through the cycle-level DRAM
    /// model).
    cost: CostModelKind,
    /// Replay memo shared by every trace-driven model this device (and
    /// its clones) hands out, so distinct command streams are simulated
    /// once per context-length bucket device-wide.
    trace_memo: TraceMemo,
    /// The replay hardware of trace-driven models, fingerprinted once at
    /// construction instead of once per decode iteration.
    trace_hw: TraceHardware,
    /// The trace-driven model decode pricing uses, built on the first
    /// trace-priced iteration (a device serves one model shape, so every
    /// later iteration reuses it without resolving its bucket table).
    decode_model: OnceLock<TraceDrivenCostModel>,
    /// The decoder block's NPU lowering, derived once per model shape:
    /// decode sub-batches and prefill chunks price any row count from it.
    block: BlockMemo,
}

/// Per-iteration buffers of [`Device::decode_iteration`], lent from
/// [`DECODE_SCRATCH`] so a warm iteration prices, balances, splits and
/// sums its batch without allocating for it.
#[derive(Debug, Default)]
struct DecodeScratch {
    /// Each request's MHA cost.
    costs: Vec<f64>,
    /// Each request's home channel.
    homes: Vec<ChannelId>,
    /// Each channel's MHA time.
    lanes: Vec<ChannelLoad>,
    /// GMLBP's buffers.
    packer: MinLoadPacker,
    /// Algorithm 3's per-channel quota.
    sides: SubBatchSides,
}

thread_local! {
    /// One [`DecodeScratch`] per thread, lent to whichever device prices
    /// an iteration on it.
    static DECODE_SCRATCH: Cell<DecodeScratch> = Cell::new(DecodeScratch::default());
}

/// The per-request terms of a (sub-)batch that sum as integers.
#[derive(Debug, Clone, Copy, Default)]
struct RequestSums {
    /// Requests (the GEMM row count).
    m: u64,
    /// Softmax cycles (overlappable with PIM in NeuPIMs).
    softmax: u64,
    /// Logit/result transfer bytes between PIM and vector units.
    logit_bytes: u64,
    /// GWRITE page bytes (query/logit vector loads).
    gwrite_bytes: u64,
    /// Total KV bytes read (for NPU-only MHA).
    kv_read_bytes: u64,
}

impl std::ops::AddAssign for RequestSums {
    fn add_assign(&mut self, r: Self) {
        self.m += r.m;
        self.softmax += r.softmax;
        self.logit_bytes += r.logit_bytes;
        self.gwrite_bytes += r.gwrite_bytes;
        self.kv_read_bytes += r.kv_read_bytes;
    }
}

/// One PIM channel's MHA time, in cycles per decoder layer. Each sum adds
/// the channel's requests in batch order, the order the per-channel
/// results are pinned in.
#[derive(Debug, Clone, Copy, Default)]
struct ChannelLoad {
    /// GEMV load of the whole batch.
    all: f64,
    /// Blocked-mode per-head turnaround of the whole batch (naive only).
    turnaround: f64,
    /// GEMV load of Algorithm 3's first sub-batch.
    first: f64,
    /// GEMV load of Algorithm 3's second sub-batch.
    second: f64,
}

/// Per-sub-batch stage costs, all in cycles or bytes (per decoder layer).
#[derive(Debug, Clone, Default)]
struct SubCosts {
    /// Systolic compute: QKV stage.
    c_qkv: u64,
    /// Systolic compute: projection + FFNs.
    c_pf: u64,
    /// Weight bytes of the QKV stage.
    w_qkv: u64,
    /// Weight bytes of projection + FFNs.
    w_pf: u64,
    /// KV-cache append bytes.
    kv_append: u64,
    /// Vector-unit cycles outside MHA.
    vector: u64,
    /// The per-request sums.
    req: RequestSums,
    /// The slowest channel's PIM stage: its GEMV load, plus the per-head
    /// turnaround blocked-mode PIM serializes with it.
    pim_max: f64,
    /// GEMM FLOPs.
    flops: u64,
    /// Tensor-parallel all-reduce cycles.
    allreduce: u64,
}

impl Device {
    /// Creates a device from a hardware config, calibrated PIM constants,
    /// and an execution mode. MHA is priced analytically (Algorithm 1) by
    /// default; see [`Self::with_cost_model`].
    pub fn new(cfg: NeuPimsConfig, cal: PimCalibration, mode: DeviceMode) -> Self {
        Self {
            cfg,
            cal,
            mode,
            cost: CostModelKind::Analytic,
            trace_memo: TraceMemo::new(),
            trace_hw: TraceHardware::new(&cfg),
            decode_model: OnceLock::new(),
            block: BlockMemo::default(),
        }
    }

    /// The full NeuPIMs system on the Table 2 hardware, with the PIM
    /// constants calibrated from the cycle model. Calibration is memoized
    /// per process, so only the first Table 2 device measures it.
    ///
    /// # Errors
    ///
    /// Propagates calibration failures.
    pub fn table2() -> Result<Self, SimError> {
        Self::table2_mode(DeviceMode::neupims())
    }

    /// A specific [`DeviceMode`] on the Table 2 hardware.
    ///
    /// # Errors
    ///
    /// Propagates calibration failures.
    pub fn table2_mode(mode: DeviceMode) -> Result<Self, SimError> {
        let cfg = NeuPimsConfig::table2();
        let cal = calibrate(&cfg)?;
        Ok(Self::new(cfg, cal, mode))
    }

    /// Selects the MHA cost model this device prices decode iterations
    /// with — and hands to serving schedulers via
    /// [`Backend::mha_cost_model`](crate::backend::Backend::mha_cost_model).
    /// [`CostModelKind::TraceDriven`] runs every GEMV stream through the
    /// cycle-level DRAM channel (memoized per context-length bucket) in
    /// place of the Algorithm 1 constants.
    pub fn with_cost_model(mut self, kind: CostModelKind) -> Self {
        self.cost = kind;
        self
    }

    /// The MHA cost-model kind in effect.
    pub fn cost_model_kind(&self) -> CostModelKind {
        self.cost
    }

    /// Replaces this device's replay memo with a shared one, so the
    /// trace-driven cost models it hands out afterwards amortize command
    /// streams with every other device on the same memo (memo keys carry
    /// the hardware fingerprint, so heterogeneous devices never collide).
    /// Returns `false` — and leaves the device untouched — for modes
    /// without a PIM, which never replay anything.
    pub fn attach_trace_memo(&mut self, memo: &TraceMemo) -> bool {
        if !self.mode.uses_pim() {
            return false;
        }
        self.trace_memo = memo.clone();
        self.decode_model = OnceLock::new();
        true
    }

    /// Hardware configuration.
    pub fn config(&self) -> &NeuPimsConfig {
        &self.cfg
    }

    /// Execution mode.
    pub fn mode(&self) -> DeviceMode {
        self.mode
    }

    /// The Algorithm 1 estimator this device's scheduler uses (composite
    /// command latencies for NeuPIMs, Newton-style for the naive mode).
    pub(crate) fn estimator(&self, model: &LlmConfig, tp: u32) -> MhaLatencyEstimator {
        self.estimator_on(KvGeometry::with_tp(model, &self.cfg.mem, tp))
    }

    fn estimator_on(&self, geo: KvGeometry) -> MhaLatencyEstimator {
        let l_tile = if self.mode.dual_row_buffer() {
            self.cal.l_tile
        } else {
            self.cal.l_tile_fine
        };
        MhaLatencyEstimator::new(geo, l_tile, self.cal.l_gwrite)
    }

    /// A trace-driven model on this device's hardware and replay memo.
    fn trace_model_on(&self, geo: KvGeometry) -> TraceDrivenCostModel {
        TraceDrivenCostModel::on_hardware(
            self.trace_hw,
            geo,
            self.mode.dual_row_buffer(),
            self.trace_memo.clone(),
        )
    }

    /// The MHA cost model of `kind` for this device's PIM (`None` when the
    /// mode runs no PIM). Trace-driven models share the device-wide replay
    /// memo, so repeated calls amortize one set of simulated streams.
    pub fn cost_model(
        &self,
        model: &LlmConfig,
        tp: u32,
        kind: CostModelKind,
    ) -> Option<Box<dyn MhaCostModel>> {
        if !self.mode.uses_pim() {
            return None;
        }
        let geo = KvGeometry::with_tp(model, &self.cfg.mem, tp);
        Some(match kind {
            CostModelKind::Analytic => Box::new(self.estimator_on(geo)),
            CostModelKind::TraceDriven => Box::new(self.trace_model_on(geo)),
        })
    }

    /// Device-wide solo streaming bandwidth, bytes/cycle.
    fn bw_solo(&self) -> f64 {
        self.cal.mem_stream_bw * self.cfg.mem.channels as f64
    }

    /// Device-wide streaming bandwidth while PIM runs concurrently.
    fn bw_shared(&self) -> f64 {
        self.cal.mem_stream_bw_shared * self.cfg.mem.channels as f64
    }

    /// Stage costs of a sub-batch of `req.m` requests, the block priced
    /// at that batch size.
    fn sub_costs(
        &self,
        block: &BlockLowering,
        tp: u32,
        geo: &KvGeometry,
        req: RequestSums,
        pim_max: f64,
    ) -> SubCosts {
        let b = block.at(req.m);
        SubCosts {
            c_qkv: b.qkv_cycles,
            c_pf: b.rest_cycles,
            w_qkv: b.qkv_weight_bytes,
            w_pf: b.rest_weight_bytes,
            kv_append: req.m * geo.kv_bytes_per_token_layer(),
            vector: b.vector_cycles,
            req,
            pim_max,
            flops: b.gemm_flops,
            allreduce: PcieLink::from_config(self.cfg.interconnect)
                .all_reduce_cycles(b.allreduce_bytes, tp)
                * b.allreduces as u64,
        }
    }

    /// Serial per-layer time of one sub-batch (used by the non-interleaved
    /// modes and as the pipeline fill term). Returns `(cycles, bus_bytes)`.
    fn serial_layer(&self, s: &SubCosts) -> (u64, u64) {
        // NPU stages run while PIM is idle: solo bandwidth applies.
        let bw = self.bw_solo();
        let mut bus = 0u64;

        // QKV generation.
        let qkv_bytes = s.w_qkv + s.kv_append;
        let d_qkv = (s.c_qkv as f64).max(qkv_bytes as f64 / bw) as u64;
        bus += qkv_bytes;

        // Multi-head attention.
        let (d_mha, mha_bus) = match self.mode {
            DeviceMode::NpuOnly => {
                let d = (s.req.kv_read_bytes as f64 / bw) as u64 + s.req.softmax;
                (d, s.req.kv_read_bytes)
            }
            DeviceMode::NaiveNpuPim => {
                // Blocked mode: GEMV and per-head turnarounds serialize
                // within each channel; the slowest channel bounds the stage.
                (s.pim_max as u64, s.req.logit_bytes + s.req.gwrite_bytes)
            }
            DeviceMode::NeuPims { .. } => {
                // Figure 10: softmax and transfers overlap the GEMV stream
                // (transfers ride the shared-bandwidth bus).
                let transfers = s.req.logit_bytes + s.req.gwrite_bytes;
                let transfer = transfers as f64 / self.bw_shared();
                let d = s.pim_max.max(s.req.softmax as f64).max(transfer) + self.cal.l_tile;
                (d as u64, transfers)
            }
        };
        bus += mha_bus;

        // Projection + FFNs; dual row buffers let the SPM prefetch weights
        // during MHA at the shared bandwidth, bounded by SPM capacity.
        let prefetch = if self.mode.dual_row_buffer() {
            (self.cfg.npu.spm_bytes as f64).min(d_mha as f64 * self.bw_shared())
        } else {
            0.0
        };
        let pf_bytes = (s.w_pf as f64 - prefetch).max(0.0);
        let d_pf = (s.c_pf as f64).max(pf_bytes / bw) as u64 + s.vector + s.allreduce;
        bus += s.w_pf;

        (d_qkv + d_mha + d_pf, bus)
    }

    /// The serial arm: every stage of every layer in order. PIM busy and
    /// token counts are left to the caller.
    fn serial_iteration(&self, s: &SubCosts, layers: u64) -> IterationBreakdown {
        let (layer_cycles, layer_bus) = self.serial_layer(s);
        IterationBreakdown {
            total_cycles: layer_cycles * layers,
            npu_flops: s.flops * layers,
            npu_busy: (s.c_qkv + s.c_pf) * layers,
            vector_busy: (s.vector + s.req.softmax) * layers,
            bus_bytes: layer_bus * layers,
            allreduce_cycles: s.allreduce * layers,
            ..Default::default()
        }
    }

    /// The interleaved (Algorithm 3) arm over sub-batches `a` and `b`,
    /// whose summed per-channel GEMV loads bound the PIM demand. PIM busy
    /// and token counts are left to the caller.
    fn sbi_iteration(
        &self,
        a: &SubCosts,
        b: &SubCosts,
        pim_demand: f64,
        layers: u64,
    ) -> IterationBreakdown {
        // Steady-state bottleneck law. Same-stage pairs run adjacently on
        // the NPU, so the second of a pair reuses the SPM-resident slice of
        // the stage's weights; the remainder re-streams. PIM runs
        // throughout, so the bus operates at the shared bandwidth.
        let bw = self.bw_shared();
        let spm = self.cfg.npu.spm_bytes;
        let pair_bytes = |w: u64| 2 * w - w.min(spm);
        let bus_bytes_layer = pair_bytes(a.w_qkv.max(b.w_qkv))
            + pair_bytes(a.w_pf.max(b.w_pf))
            + a.kv_append
            + b.kv_append
            + a.req.logit_bytes
            + b.req.logit_bytes
            + a.req.gwrite_bytes
            + b.req.gwrite_bytes;
        let npu_demand = a.c_qkv + a.c_pf + b.c_qkv + b.c_pf;
        let bus_demand = bus_bytes_layer as f64 / bw;
        let vector_demand = a.vector + a.req.softmax + b.vector + b.req.softmax;
        let comm_demand = a.allreduce + b.allreduce;
        let slack = self.cal.l_tile as u64 + 2 * self.cfg.npu.sa_rows as u64;
        let steady = (npu_demand as f64)
            .max(bus_demand)
            .max(pim_demand)
            .max(vector_demand as f64)
            .max(comm_demand as f64) as u64
            + slack;

        // Pipeline fill/drain: one serially executed layer of sub-batch A.
        let (fill, _) = self.serial_layer(a);
        IterationBreakdown {
            total_cycles: steady * layers.saturating_sub(1).max(1) + fill,
            npu_flops: (a.flops + b.flops) * layers,
            npu_busy: npu_demand * layers,
            vector_busy: vector_demand * layers,
            bus_bytes: bus_bytes_layer * layers,
            allreduce_cycles: comm_demand * layers,
            ..Default::default()
        }
    }

    /// Prices the summarization (prefill) phase for a set of prompts on a
    /// standalone NPU of this configuration (the paper delegates prefill
    /// to standalone NPUs, Section 4): every prompt token flows through
    /// every layer's GEMMs at once, so the phase is compute-bound
    /// (Figure 4) and needs no PIM.
    ///
    /// Returns the total cycles for `layers` decoder blocks.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidShape`] for empty input or zero layers,
    /// and propagates compilation errors.
    pub fn prefill_cycles(
        &self,
        model: &LlmConfig,
        tp: u32,
        layers: u32,
        prompt_lens: &[u64],
    ) -> Result<neupims_types::Cycle, SimError> {
        if prompt_lens.is_empty() {
            return Err(SimError::InvalidShape("empty prompt batch".into()));
        }
        if layers == 0 {
            return Err(SimError::InvalidShape("zero resident layers".into()));
        }
        model.validate()?;
        // Every prompt token is a GEMM row.
        let total_tokens: u64 = prompt_lens.iter().sum();
        let lb = self.block.get(&self.cfg.npu, model, tp)?.at(total_tokens);
        let bw = self.cal.mem_stream_bw * self.cfg.mem.channels as f64;
        let compute = lb.qkv_cycles + lb.rest_cycles;
        let bytes = lb.qkv_weight_bytes + lb.rest_weight_bytes;
        // Summarization attention is a batched GEMM over the prompt
        // (activation-activation with full reuse); approximate with its
        // FLOPs at peak, which Figure 4 shows is the right regime.
        let attn_flops: u64 = prompt_lens
            .iter()
            .map(|&s| 4 * s * s * (model.d_model as u64 / tp.max(1) as u64))
            .sum();
        let attn = attn_flops / self.cfg.npu.peak_flops_per_cycle().max(1);
        let layer = (compute as f64).max(bytes as f64 / bw) as u64
            + attn
            + lb.vector_cycles
            + total_tokens / 8; // KV-cache write-out at page granularity
        Ok(layer * layers as u64)
    }

    /// Executes one decode iteration over `layers` resident decoder blocks
    /// for the batch described by `seq_lens` (one entry per request, its
    /// current context length), sharded at tensor parallelism `tp`.
    ///
    /// Each request is estimated once and walked once: that pass sums the
    /// serial arm and, when sub-batch interleaving may run, both Algorithm
    /// 3 sub-batches, in O(1) arithmetic per request. The NPU side of each
    /// arm is then priced by batch size alone, from the block lowering
    /// the device keeps per model shape. PIM modes price with the
    /// configured cost model, NPU-only MHA with the analytic form (it
    /// needs only the geometry, which both carry).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidShape`] for an empty batch or zero layer
    /// count, and propagates model/compilation errors.
    pub fn decode_iteration(
        &self,
        model: &LlmConfig,
        tp: u32,
        layers: u32,
        seq_lens: &[u64],
    ) -> Result<IterationBreakdown, SimError> {
        if seq_lens.is_empty() {
            return Err(SimError::InvalidShape("empty batch".into()));
        }
        if layers == 0 {
            return Err(SimError::InvalidShape("zero resident layers".into()));
        }
        model.validate()?;
        let geo = KvGeometry::with_tp(model, &self.cfg.mem, tp);
        if self.cost == CostModelKind::TraceDriven && self.mode.uses_pim() {
            let cached = self.decode_model.get_or_init(|| self.trace_model_on(geo));
            if *cached.geometry() == geo {
                return self.price_decode(cached, model, tp, layers, seq_lens);
            }
            return self.price_decode(&self.trace_model_on(geo), model, tp, layers, seq_lens);
        }
        self.price_decode(&self.estimator_on(geo), model, tp, layers, seq_lens)
    }

    /// [`Self::decode_iteration`] over a validated, non-empty batch,
    /// priced by `estimator`.
    fn price_decode<C: MhaCostModel>(
        &self,
        estimator: &C,
        model: &LlmConfig,
        tp: u32,
        layers: u32,
        seq_lens: &[u64],
    ) -> Result<IterationBreakdown, SimError> {
        let block = self.block.get(&self.cfg.npu, model, tp)?;
        let mut scratch = Lent::take(&DECODE_SCRATCH);
        let DecodeScratch {
            costs,
            homes,
            lanes,
            packer,
            sides,
        } = &mut *scratch;
        // Price every request once: GMLBP balancing, the serial arm and
        // both sub-batch interleaving arms all read these costs.
        let geo = estimator.geometry();
        let channels = self.cfg.mem.channels;
        estimator.estimate_into(seq_lens, costs);
        match self.mode {
            DeviceMode::NeuPims { gmlbp: true, .. } => {
                packer.assign(seq_lens, costs, channels, homes);
            }
            _ => {
                // Round-robin placement, into the reused buffer.
                homes.clear();
                homes.extend((0..seq_lens.len()).map(|i| ChannelId::new(i as u32 % channels)));
            }
        }
        let policy = match self.mode {
            DeviceMode::NeuPims { sbi, .. } if seq_lens.len() >= 2 => sbi,
            _ => SbiPolicy::Off,
        };
        let mut sides = (policy != SbiPolicy::Off).then(|| {
            sides.reset(homes);
            sides
        });

        // The one pass over the batch, its per-request constants hoisted
        // and its divisors prepared.
        let es = model.dtype.size_bytes();
        let vc = VectorCost::new(&self.cfg.npu);
        let counts = geo.counts();
        let softmax_rows = heads_per_device(model, tp);
        let page_bytes = self.cfg.mem.page_bytes;
        let logit_bytes_per_token = 2 * geo.heads * es;
        let kv_bytes_per_token = 2 * geo.embed * es;
        let bus_per_channel = self.cfg.mem.bus_bytes_per_cycle as f64;
        let head_resync = self.cal.l_gwrite + self.cfg.timing.t_rc() as f64;
        let heads = geo.heads as f64;
        let blocked = self.mode == DeviceMode::NaiveNpuPim;
        let uses_pim = self.mode.uses_pim();
        lanes.clear();
        lanes.resize(channels as usize, ChannelLoad::default());
        let [mut all, mut first, mut second] = [RequestSums::default(); 3];
        let (mut tiles, mut gwrites) = (0u64, 0u64);
        for ((&seq, &cost), &home) in seq_lens.iter().zip(costs.iter()).zip(homes.iter()) {
            let request_gwrites = counts.mha_gwrites(seq);
            let req = RequestSums {
                m: 1,
                softmax: vc.softmax(softmax_rows, seq.max(1)),
                logit_bytes: seq * logit_bytes_per_token,
                gwrite_bytes: request_gwrites * page_bytes,
                kv_read_bytes: seq * kv_bytes_per_token,
            };
            if uses_pim {
                tiles += counts.mha_tiles(seq);
                gwrites += request_gwrites;
            }
            let lane = &mut lanes[home.index()];
            lane.all += cost;
            if blocked {
                // Blocked-mode per-head turnaround: drain logits to the
                // vector units, softmax, write them back (GWRITE), plus a
                // row-cycle of resynchronization — all serial with the
                // channel's GEMV work.
                let per_head = head_resync
                    + vc.softmax(1, seq.max(1)) as f64
                    + (4 * seq) as f64 / bus_per_channel;
                lane.turnaround += heads * per_head;
            }
            all += req;
            if let Some(sides) = &mut sides {
                if sides.next_is_first(home) {
                    lane.first += cost;
                    first += req;
                } else {
                    lane.second += cost;
                    second += req;
                }
            }
        }
        let slowest = |load: fn(&ChannelLoad) -> f64| lanes.iter().map(load).fold(0.0, f64::max);
        let layers = layers as u64;

        // Interleave when Algorithm 3 leaves both sub-batches non-empty
        // and the policy (or, adaptively, the serial arm's price) says so.
        let sbi = match sides {
            Some(_) if first.m > 0 && second.m > 0 => {
                let a = self.sub_costs(&block, tp, geo, first, slowest(|l| l.first));
                let b = self.sub_costs(&block, tp, geo, second, slowest(|l| l.second));
                let pim_demand = slowest(|l| l.first + l.second);
                Some(self.sbi_iteration(&a, &b, pim_demand, layers))
            }
            _ => None,
        };
        let serial = match (&sbi, policy) {
            (Some(_), SbiPolicy::Always) => None,
            _ => {
                let pim_max = slowest(|l| l.all + l.turnaround);
                let s = self.sub_costs(&block, tp, geo, all, pim_max);
                Some(self.serial_iteration(&s, layers))
            }
        };
        let (mut out, interleaved) = match (sbi, serial) {
            (Some(sbi), Some(serial)) if sbi.total_cycles >= serial.total_cycles => (serial, false),
            (Some(sbi), _) => (sbi, true),
            (None, serial) => (serial.expect("the serial arm is priced"), false),
        };

        let layers_f = layers as f64;
        out.pim_busy = lanes
            .iter()
            .map(|l| match (interleaved, uses_pim) {
                (true, _) => ((l.first + l.second) * layers_f) as u64,
                (false, true) => (l.all * layers_f) as u64,
                (false, false) => 0,
            })
            .collect();
        out.tokens = seq_lens.len() as u64;
        out.pim_tiles = tiles * layers;
        out.pim_gwrites = gwrites * layers;
        out.pim_inbank_bytes = out.pim_tiles * self.cfg.mem.banks_per_channel as u64 * page_bytes;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::table2_device;

    fn device(mode: DeviceMode) -> Device {
        table2_device(mode)
    }

    fn batch(n: usize, seq: u64) -> Vec<u64> {
        vec![seq; n]
    }

    #[test]
    fn mode_labels_and_flags() {
        assert_eq!(DeviceMode::NpuOnly.label(), "NPU-only");
        assert_eq!(DeviceMode::neupims().label(), "NeuPIMs");
        assert_eq!(
            DeviceMode::NeuPims {
                gmlbp: true,
                sbi: SbiPolicy::Always
            }
            .label(),
            "NeuPIMs-DRB+GMLBP+SBI"
        );
        assert!(!DeviceMode::NpuOnly.uses_pim());
        assert!(DeviceMode::NaiveNpuPim.uses_pim());
        assert!(!DeviceMode::NaiveNpuPim.dual_row_buffer());
        assert!(DeviceMode::neupims().dual_row_buffer());
    }

    #[test]
    fn empty_batch_rejected() {
        let d = device(DeviceMode::neupims());
        let model = LlmConfig::gpt3_7b();
        assert!(d.decode_iteration(&model, 4, 32, &[]).is_err());
        assert!(d.decode_iteration(&model, 4, 0, &[1]).is_err());
    }

    #[test]
    fn figure12_ordering_holds() {
        // NPU-only slower than naive NPU+PIM slower than NeuPIMs, for a
        // ShareGPT-like batch.
        let model = LlmConfig::gpt3_7b();
        let seqs = batch(256, 376);
        let t = |mode| {
            device(mode)
                .decode_iteration(&model, 4, model.num_layers, &seqs)
                .unwrap()
                .total_cycles
        };
        let npu = t(DeviceMode::NpuOnly);
        let naive = t(DeviceMode::NaiveNpuPim);
        let neupims = t(DeviceMode::neupims());
        assert!(naive < npu, "naive {naive} vs npu-only {npu}");
        assert!(neupims < naive, "neupims {neupims} vs naive {naive}");
        // Paper band: NPU+PIM ~1.5x over NPU-only; NeuPIMs 1.1-3x further.
        let r1 = npu as f64 / naive as f64;
        let r2 = naive as f64 / neupims as f64;
        assert!(r1 > 1.1 && r1 < 8.0, "npu/naive {r1}");
        assert!(r2 > 1.05 && r2 < 4.0, "naive/neupims {r2}");
    }

    #[test]
    fn sbi_crossover_with_batch_size() {
        // Figure 13: forced SBI hurts at small batch, wins at large batch.
        let model = LlmConfig::gpt3_7b();
        let no_sbi = device(DeviceMode::NeuPims {
            gmlbp: true,
            sbi: SbiPolicy::Off,
        });
        let with_sbi = device(DeviceMode::NeuPims {
            gmlbp: true,
            sbi: SbiPolicy::Always,
        });
        let time = |d: &Device, n: usize| {
            d.decode_iteration(&model, 4, model.num_layers, &batch(n, 376))
                .unwrap()
                .total_cycles as f64
        };
        let gain_small = time(&no_sbi, 32) / time(&with_sbi, 32);
        let gain_large = time(&no_sbi, 512) / time(&with_sbi, 512);
        assert!(
            gain_large > gain_small,
            "SBI gain must grow with batch: {gain_small} -> {gain_large}"
        );
        assert!(gain_large > 1.05, "SBI must win at B=512: {gain_large}");
        assert!(gain_small < 1.0, "SBI should lose at B=32: {gain_small}");
    }

    #[test]
    fn adaptive_sbi_never_loses_to_either_arm() {
        let model = LlmConfig::gpt3_7b();
        let adaptive = device(DeviceMode::neupims());
        let off = device(DeviceMode::NeuPims {
            gmlbp: true,
            sbi: SbiPolicy::Off,
        });
        let always = device(DeviceMode::NeuPims {
            gmlbp: true,
            sbi: SbiPolicy::Always,
        });
        for n in [8usize, 64, 256, 512] {
            let seqs = batch(n, 376);
            let t = |d: &Device| {
                d.decode_iteration(&model, 4, model.num_layers, &seqs)
                    .unwrap()
                    .total_cycles
            };
            let ta = t(&adaptive);
            assert!(ta <= t(&off), "B={n}");
            assert!(ta <= t(&always), "B={n}");
        }
    }

    #[test]
    fn gmlbp_beats_round_robin_on_skewed_batches() {
        let model = LlmConfig::gpt3_7b();
        // Heavy skew: few giants among small requests.
        let mut seqs = vec![4096u64; 6];
        seqs.extend(std::iter::repeat_n(32u64, 122));
        let rr = device(DeviceMode::NeuPims {
            gmlbp: false,
            sbi: SbiPolicy::Off,
        });
        let bp = device(DeviceMode::NeuPims {
            gmlbp: true,
            sbi: SbiPolicy::Off,
        });
        let t_rr = rr
            .decode_iteration(&model, 4, model.num_layers, &seqs)
            .unwrap()
            .total_cycles;
        let t_bp = bp
            .decode_iteration(&model, 4, model.num_layers, &seqs)
            .unwrap()
            .total_cycles;
        assert!(t_bp < t_rr, "GMLBP {t_bp} must beat RR {t_rr} on skew");
    }

    #[test]
    fn utilization_shape_matches_table4() {
        let model = LlmConfig::gpt3_30b();
        let seqs = batch(128, 228);
        let cfg = NeuPimsConfig::table2();
        let run = |mode| {
            let b = device(mode)
                .decode_iteration(&model, 4, model.num_layers / 2, &seqs)
                .unwrap();
            b.utilization(&cfg)
        };
        let npu_only = run(DeviceMode::NpuOnly);
        let naive = run(DeviceMode::NaiveNpuPim);
        let neupims = run(DeviceMode::neupims());
        // NPU utilization strictly improves along the Table 4 row.
        assert!(npu_only.npu < naive.npu, "{npu_only:?} {naive:?}");
        assert!(naive.npu < neupims.npu, "{naive:?} {neupims:?}");
        // Naive integration collapses bandwidth utilization; NeuPIMs
        // restores it above the naive level.
        assert!(naive.bandwidth < npu_only.bandwidth);
        assert!(neupims.bandwidth > naive.bandwidth);
        // PIM is busier under NeuPIMs than under the naive offload.
        assert!(neupims.pim > naive.pim);
        assert_eq!(npu_only.pim, 0.0);
    }

    #[test]
    fn sharegpt_gains_exceed_alpaca_gains() {
        // Longer sequences -> more PIM-accelerated work -> bigger win.
        let model = LlmConfig::gpt3_7b();
        let t = |mode, seq| {
            device(mode)
                .decode_iteration(&model, 4, model.num_layers, &batch(256, seq))
                .unwrap()
                .total_cycles as f64
        };
        let gain_long = t(DeviceMode::NpuOnly, 376) / t(DeviceMode::neupims(), 376);
        let gain_short = t(DeviceMode::NpuOnly, 48) / t(DeviceMode::neupims(), 48);
        assert!(
            gain_long > gain_short,
            "ShareGPT-like {gain_long} vs Alpaca-like {gain_short}"
        );
    }

    #[test]
    fn throughput_grows_with_batch_for_neupims() {
        let model = LlmConfig::gpt3_7b();
        let d = device(DeviceMode::neupims());
        let thr = |n| {
            let b = d
                .decode_iteration(&model, 4, model.num_layers, &batch(n, 376))
                .unwrap();
            b.tokens_per_sec()
        };
        assert!(thr(128) > thr(64));
        assert!(thr(512) > thr(128));
    }

    #[test]
    fn iteration_accounting_is_consistent() {
        let model = LlmConfig::gpt3_13b();
        let d = device(DeviceMode::neupims());
        let b = d
            .decode_iteration(&model, 4, model.num_layers, &batch(64, 300))
            .unwrap();
        assert_eq!(b.tokens, 64);
        assert!(b.total_cycles > 0);
        assert!(b.npu_flops > 0);
        assert!(b.bus_bytes > 0);
        assert!(b.pim_tiles > 0);
        assert!(b.pim_inbank_bytes > 0);
        assert_eq!(b.pim_busy.len(), 32);
        // Busy never exceeds makespan x resource count.
        let u = b.utilization(&NeuPimsConfig::table2());
        assert!(u.npu <= 1.0 && u.pim <= 1.0 && u.bandwidth <= 1.0);
    }

    #[test]
    fn prefill_is_compute_bound_and_scales() {
        let model = LlmConfig::gpt3_7b();
        let d = device(DeviceMode::neupims());
        let short = d
            .prefill_cycles(&model, 4, model.num_layers, &[64; 8])
            .unwrap();
        let long = d
            .prefill_cycles(&model, 4, model.num_layers, &[512; 8])
            .unwrap();
        assert!(long > 4 * short, "prefill must scale with prompt tokens");
        // Degenerate inputs rejected.
        assert!(d.prefill_cycles(&model, 4, 32, &[]).is_err());
        assert!(d.prefill_cycles(&model, 4, 0, &[1]).is_err());
        // A large prefill costs more than one decode iteration for the
        // same requests (many tokens vs one token each).
        let decode = d
            .decode_iteration(&model, 4, model.num_layers, &[512; 8])
            .unwrap()
            .total_cycles;
        assert!(long > decode, "prefill {long} vs decode {decode}");
    }

    #[test]
    fn an_attached_memo_prices_the_next_iteration() {
        // The first iteration builds the decode model on the device's own
        // memo; attaching a shared one must move pricing onto it.
        let model = LlmConfig::gpt3_7b();
        let seqs = batch(8, 300);
        let mut d = device(DeviceMode::neupims()).with_cost_model(CostModelKind::TraceDriven);
        let before = d.decode_iteration(&model, 4, 32, &seqs).unwrap();
        let shared = TraceMemo::new();
        assert!(d.attach_trace_memo(&shared));
        let after = d.decode_iteration(&model, 4, 32, &seqs).unwrap();
        assert_eq!(after, before);
        let snap = shared.snapshot();
        assert_eq!((snap.replays, snap.memo_hits), (1, 7));
    }

    #[test]
    fn one_device_prices_each_model_shape_with_its_own_geometry() {
        // The cached decode model serves one shape; any other shape gets
        // a model of its own geometry.
        let seqs = batch(16, 700);
        let trace = || device(DeviceMode::neupims()).with_cost_model(CostModelKind::TraceDriven);
        let shared = trace();
        for (model, tp) in [
            (LlmConfig::gpt3_7b(), 4),
            (LlmConfig::gpt3_7b(), 2),
            (LlmConfig::gpt3_13b(), 4),
        ] {
            let reused = shared.decode_iteration(&model, tp, 8, &seqs).unwrap();
            let fresh = trace().decode_iteration(&model, tp, 8, &seqs).unwrap();
            assert_eq!(reused, fresh, "{} at TP {tp}", model.name);
        }
    }

    #[test]
    fn drb_alone_improves_on_naive() {
        // The Figure 13 DRB bar: dual row buffers with round-robin channels
        // and no SBI must already beat the blocked-mode baseline.
        let model = LlmConfig::gpt3_7b();
        for n in [64usize, 256, 512] {
            let seqs = batch(n, 376);
            let t = |mode| {
                device(mode)
                    .decode_iteration(&model, 4, model.num_layers, &seqs)
                    .unwrap()
                    .total_cycles
            };
            let naive = t(DeviceMode::NaiveNpuPim);
            let drb = t(DeviceMode::NeuPims {
                gmlbp: false,
                sbi: SbiPolicy::Off,
            });
            assert!(drb < naive, "B={n}: drb {drb} vs naive {naive}");
        }
    }
}
