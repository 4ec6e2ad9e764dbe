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

use neupims_kvcache::KvGeometry;
use neupims_llm::compiler::{compile_block, CompiledBlock};
use neupims_npu::VectorCost;
use neupims_pim::PimCalibration;
use neupims_sched::{
    assign_min_load, assign_round_robin, AnalyticCostModel, CostModelKind, MhaCostModel,
    MhaLatencyEstimator, TraceDrivenCostModel, TraceHardware, TraceMemo,
};
use neupims_types::{
    config::InterconnectConfig, ChannelId, LlmConfig, NeuPimsConfig, Phase, RequestId, SimError,
};

use crate::metrics::IterationBreakdown;

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
}

/// One decode batch, priced once: each request's context length, MHA
/// cost estimate, and PIM channel, index-aligned.
#[derive(Debug, Default)]
struct PricedBatch {
    seq_lens: Vec<u64>,
    costs: Vec<f64>,
    channels: Vec<ChannelId>,
}

impl PricedBatch {
    /// The sub-batch of the requests at `ids` (batch indices), in order.
    fn pick(&self, ids: &[RequestId]) -> Self {
        let mut sub = Self::default();
        for id in ids {
            sub.seq_lens.push(self.seq_lens[id.index()]);
            sub.costs.push(self.costs[id.index()]);
            sub.channels.push(self.channels[id.index()]);
        }
        sub
    }
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
    /// Softmax cycles (overlappable with PIM in NeuPIMs).
    softmax: u64,
    /// Logit/result transfer bytes between PIM and vector units.
    logit_bytes: u64,
    /// GWRITE page bytes (query/logit vector loads).
    gwrite_bytes: u64,
    /// Per-channel PIM GEMV load, cycles.
    pim_loads: Vec<f64>,
    /// Per-channel blocked-mode turnaround (naive only), cycles.
    turnaround: Vec<f64>,
    /// Total KV bytes read (for NPU-only MHA).
    kv_read_bytes: u64,
    /// GEMM FLOPs.
    flops: u64,
    /// Tensor-parallel all-reduce cycles.
    allreduce: u64,
}

impl SubCosts {
    fn pim_max(&self) -> f64 {
        self.pim_loads.iter().copied().fold(0.0, f64::max)
    }

    fn blocked_mha_max(&self) -> f64 {
        self.pim_loads
            .iter()
            .zip(&self.turnaround)
            .map(|(p, t)| p + t)
            .fold(0.0, f64::max)
    }
}

fn ring_allreduce_cycles(bytes: u64, tp: u32, ic: &InterconnectConfig) -> u64 {
    if tp <= 1 || bytes == 0 {
        return 0;
    }
    let steps = 2 * (tp as u64 - 1);
    let per_dev = bytes * (tp as u64 - 1) * 2 / tp as u64;
    per_dev / ic.link_bytes_per_cycle.max(1) + steps * ic.link_latency
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
        }
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
        true
    }

    /// The replay memo trace-driven cost models of this device share.
    pub fn trace_memo(&self) -> &TraceMemo {
        &self.trace_memo
    }

    /// Hardware configuration.
    pub fn config(&self) -> &NeuPimsConfig {
        &self.cfg
    }

    /// Calibrated PIM constants.
    pub fn calibration(&self) -> &PimCalibration {
        &self.cal
    }

    /// Execution mode.
    pub fn mode(&self) -> DeviceMode {
        self.mode
    }

    /// The Algorithm 1 estimator this device's scheduler uses (composite
    /// command latencies for NeuPIMs, Newton-style for the naive mode).
    pub fn estimator(&self, model: &LlmConfig, tp: u32) -> MhaLatencyEstimator {
        let geo = KvGeometry::with_tp(model, &self.cfg.mem, tp);
        let l_tile = if self.mode.dual_row_buffer() {
            self.cal.l_tile
        } else {
            self.cal.l_tile_fine
        };
        MhaLatencyEstimator::new(geo, l_tile, self.cal.l_gwrite)
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
        Some(match kind {
            CostModelKind::Analytic => Box::new(AnalyticCostModel::new(self.estimator(model, tp))),
            CostModelKind::TraceDriven => Box::new(TraceDrivenCostModel::on_hardware(
                self.trace_hw,
                KvGeometry::with_tp(model, &self.cfg.mem, tp),
                self.mode.dual_row_buffer(),
                self.trace_memo.clone(),
            )),
        })
    }

    /// The cost model decode pricing uses internally: the configured kind
    /// for PIM modes, the analytic form otherwise (NPU-only MHA needs only
    /// the geometry, which both carry).
    fn active_cost_model(&self, model: &LlmConfig, tp: u32) -> Box<dyn MhaCostModel> {
        self.cost_model(model, tp, self.cost)
            .unwrap_or_else(|| Box::new(AnalyticCostModel::new(self.estimator(model, tp))))
    }

    /// Device-wide solo streaming bandwidth, bytes/cycle.
    fn bw_solo(&self) -> f64 {
        self.cal.mem_stream_bw * self.cfg.mem.channels as f64
    }

    /// Device-wide streaming bandwidth while PIM runs concurrently.
    fn bw_shared(&self) -> f64 {
        self.cal.mem_stream_bw_shared * self.cfg.mem.channels as f64
    }

    fn sub_costs(
        &self,
        model: &LlmConfig,
        tp: u32,
        geo: &KvGeometry,
        batch: &PricedBatch,
    ) -> Result<SubCosts, SimError> {
        let seq_lens = &batch.seq_lens;
        let cb: CompiledBlock =
            compile_block(&self.cfg.npu, model, tp, seq_lens, Phase::Generation)?;
        let es = model.dtype.size_bytes();
        let m = seq_lens.len() as u64;
        let vc = VectorCost::new(&self.cfg.npu);

        let channels = self.cfg.mem.channels as usize;
        let mut pim_loads = vec![0.0f64; channels];
        let mut turnaround = vec![0.0f64; channels];
        let bus_per_channel = self.cfg.mem.bus_bytes_per_cycle as f64;
        for ((&seq, &cost), ch) in seq_lens.iter().zip(&batch.costs).zip(&batch.channels) {
            pim_loads[ch.index()] += cost;
            // Blocked-mode per-head turnaround: drain logits to the vector
            // units, softmax, write them back (GWRITE), plus a row-cycle of
            // resynchronization — all serial with the channel's GEMV work.
            let per_head = self.cal.l_gwrite
                + self.cfg.timing.t_rc() as f64
                + vc.softmax(1, seq.max(1)) as f64
                + (4 * seq) as f64 / bus_per_channel;
            turnaround[ch.index()] += geo.heads as f64 * per_head;
        }

        let heads = geo.heads;
        let logit_bytes: u64 = seq_lens.iter().map(|&s| 2 * s * heads * es).sum();
        let gwrite_bytes: u64 = seq_lens
            .iter()
            .map(|&s| geo.mha_gwrites(s) * self.cfg.mem.page_bytes)
            .sum();
        let kv_read_bytes: u64 = seq_lens.iter().map(|&s| 2 * s * geo.embed * es).sum();

        Ok(SubCosts {
            c_qkv: cb.gemms[0].compute_cycles,
            c_pf: cb.gemms[1..].iter().map(|g| g.compute_cycles).sum(),
            w_qkv: cb.gemms[0].weight_bytes,
            w_pf: cb.gemms[1..].iter().map(|g| g.weight_bytes).sum(),
            kv_append: m * 2 * geo.embed * es,
            vector: cb.vector_cycles,
            softmax: cb.softmax_cycles,
            logit_bytes,
            gwrite_bytes,
            pim_loads,
            turnaround,
            kv_read_bytes,
            flops: cb.gemm_flops(),
            allreduce: ring_allreduce_cycles(cb.allreduce_bytes, tp, &self.cfg.interconnect)
                * cb.allreduces as u64,
        })
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
                let d = (s.kv_read_bytes as f64 / bw) as u64 + s.softmax;
                (d, s.kv_read_bytes)
            }
            DeviceMode::NaiveNpuPim => {
                // Blocked mode: GEMV and per-head turnarounds serialize
                // within each channel; the slowest channel bounds the stage.
                (s.blocked_mha_max() as u64, s.logit_bytes + s.gwrite_bytes)
            }
            DeviceMode::NeuPims { .. } => {
                // Figure 10: softmax and transfers overlap the GEMV stream
                // (transfers ride the shared-bandwidth bus).
                let transfer = (s.logit_bytes + s.gwrite_bytes) as f64 / self.bw_shared();
                let d = s.pim_max().max(s.softmax as f64).max(transfer) + self.cal.l_tile;
                (d as u64, s.logit_bytes + s.gwrite_bytes)
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

    fn fill_common(
        &self,
        out: &mut IterationBreakdown,
        geo: &KvGeometry,
        seq_lens: &[u64],
        layers: u64,
    ) {
        if !self.mode.uses_pim() {
            return;
        }
        let tiles: u64 = seq_lens.iter().map(|&q| geo.mha_tiles(q)).sum();
        let gwrites: u64 = seq_lens.iter().map(|&q| geo.mha_gwrites(q)).sum();
        out.pim_tiles = tiles * layers;
        out.pim_gwrites = gwrites * layers;
        out.pim_inbank_bytes =
            out.pim_tiles * self.cfg.mem.banks_per_channel as u64 * self.cfg.mem.page_bytes;
    }

    fn serial_iteration(
        &self,
        model: &LlmConfig,
        tp: u32,
        layers: u64,
        geo: &KvGeometry,
        batch: &PricedBatch,
    ) -> Result<IterationBreakdown, SimError> {
        let s = self.sub_costs(model, tp, geo, batch)?;
        let (layer_cycles, layer_bus) = self.serial_layer(&s);
        let mut out = IterationBreakdown {
            tokens: batch.seq_lens.len() as u64,
            pim_busy: vec![0; self.cfg.mem.channels as usize],
            total_cycles: layer_cycles * layers,
            npu_flops: s.flops * layers,
            npu_busy: (s.c_qkv + s.c_pf) * layers,
            vector_busy: (s.vector + s.softmax) * layers,
            bus_bytes: layer_bus * layers,
            allreduce_cycles: s.allreduce * layers,
            ..Default::default()
        };
        if self.mode.uses_pim() {
            for (b, load) in out.pim_busy.iter_mut().zip(&s.pim_loads) {
                *b = (*load * layers as f64) as u64;
            }
        }
        self.fill_common(&mut out, geo, &batch.seq_lens, layers);
        Ok(out)
    }

    /// The interleaved (Algorithm 3) arm, or `None` when the split leaves
    /// a sub-batch empty and only serial execution remains.
    fn sbi_iteration(
        &self,
        model: &LlmConfig,
        tp: u32,
        layers: u64,
        geo: &KvGeometry,
        batch: &PricedBatch,
    ) -> Result<Option<IterationBreakdown>, SimError> {
        // Algorithm 3 operates on per-channel request lists; reconstruct
        // them from the assignment, split, then cost each sub-batch.
        let mut per_channel: Vec<Vec<RequestId>> = vec![Vec::new(); self.cfg.mem.channels as usize];
        for (i, ch) in batch.channels.iter().enumerate() {
            per_channel[ch.index()].push(RequestId::new(i as u32));
        }
        let sb = neupims_sched::partition_sub_batches(&per_channel);
        let (batch_a, batch_b) = (batch.pick(&sb.sb1), batch.pick(&sb.sb2));
        if batch_a.seq_lens.is_empty() || batch_b.seq_lens.is_empty() {
            return Ok(None);
        }
        let a = self.sub_costs(model, tp, geo, &batch_a)?;
        let b = self.sub_costs(model, tp, geo, &batch_b)?;

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
            + a.logit_bytes
            + b.logit_bytes
            + a.gwrite_bytes
            + b.gwrite_bytes;
        let npu_demand = a.c_qkv + a.c_pf + b.c_qkv + b.c_pf;
        let bus_demand = bus_bytes_layer as f64 / bw;
        let pim_demand = a
            .pim_loads
            .iter()
            .zip(&b.pim_loads)
            .map(|(x, y)| x + y)
            .fold(0.0, f64::max);
        let vector_demand = a.vector + a.softmax + b.vector + b.softmax;
        let comm_demand = a.allreduce + b.allreduce;
        let slack = self.cal.l_tile as u64 + 2 * self.cfg.npu.sa_rows as u64;
        let steady = (npu_demand as f64)
            .max(bus_demand)
            .max(pim_demand)
            .max(vector_demand as f64)
            .max(comm_demand as f64) as u64
            + slack;

        // Pipeline fill/drain: one serially executed layer of sub-batch A.
        let (fill, _) = self.serial_layer(&a);
        let total = steady * layers.saturating_sub(1).max(1) + fill;

        let mut out = IterationBreakdown {
            tokens: batch.seq_lens.len() as u64,
            pim_busy: vec![0; self.cfg.mem.channels as usize],
            total_cycles: total,
            npu_flops: (a.flops + b.flops) * layers,
            npu_busy: npu_demand * layers,
            vector_busy: vector_demand * layers,
            bus_bytes: bus_bytes_layer * layers,
            allreduce_cycles: comm_demand * layers,
            ..Default::default()
        };
        for (i, busy) in out.pim_busy.iter_mut().enumerate() {
            *busy = ((a.pim_loads[i] + b.pim_loads[i]) * layers as f64) as u64;
        }
        self.fill_common(&mut out, geo, &batch.seq_lens, layers);
        Ok(Some(out))
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
        let cb = compile_block(&self.cfg.npu, model, tp, prompt_lens, Phase::Summarization)?;
        let bw = self.cal.mem_stream_bw * self.cfg.mem.channels as f64;
        let compute: u64 = cb.gemms.iter().map(|g| g.compute_cycles).sum();
        let bytes: u64 = cb.gemms.iter().map(|g| g.weight_bytes).sum();
        // Summarization attention is a batched GEMM over the prompt
        // (activation-activation with full reuse); approximate with its
        // FLOPs at peak, which Figure 4 shows is the right regime.
        let total_tokens: u64 = prompt_lens.iter().sum();
        let attn_flops: u64 = prompt_lens
            .iter()
            .map(|&s| 4 * s * s * (model.d_model as u64 / tp.max(1) as u64))
            .sum();
        let attn = attn_flops / self.cfg.npu.peak_flops_per_cycle().max(1);
        let layer = (compute as f64).max(bytes as f64 / bw) as u64
            + attn
            + cb.vector_cycles
            + total_tokens / 8; // KV-cache write-out at page granularity
        Ok(layer * layers as u64)
    }

    /// Executes one decode iteration over `layers` resident decoder blocks
    /// for the batch described by `seq_lens` (one entry per request, its
    /// current context length), sharded at tensor parallelism `tp`.
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
        // Price every request once: GMLBP balancing, the serial arm and
        // both sub-batch interleaving arms all read these costs.
        let estimator = self.active_cost_model(model, tp);
        let geo = estimator.geometry();
        let costs: Vec<f64> = seq_lens.iter().map(|&s| estimator.estimate(s)).collect();
        let channels = match self.mode {
            DeviceMode::NeuPims { gmlbp: true, .. } => {
                assign_min_load(seq_lens, &costs, self.cfg.mem.channels)
            }
            _ => assign_round_robin(seq_lens, self.cfg.mem.channels),
        };
        let batch = PricedBatch {
            seq_lens: seq_lens.to_vec(),
            costs,
            channels,
        };
        let layers = layers as u64;

        let policy = match self.mode {
            DeviceMode::NeuPims { sbi, .. } if seq_lens.len() >= 2 => sbi,
            _ => SbiPolicy::Off,
        };
        let serial = || self.serial_iteration(model, tp, layers, geo, &batch);
        match policy {
            SbiPolicy::Off => serial(),
            SbiPolicy::Always => match self.sbi_iteration(model, tp, layers, geo, &batch)? {
                Some(sbi) => Ok(sbi),
                None => serial(),
            },
            SbiPolicy::Adaptive => {
                let serial = serial()?;
                Ok(match self.sbi_iteration(model, tp, layers, geo, &batch)? {
                    Some(sbi) if sbi.total_cycles < serial.total_cycles => sbi,
                    _ => serial,
                })
            }
        }
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
