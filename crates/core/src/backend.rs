//! The unified simulation backend abstraction.
//!
//! Every system the paper compares — the NeuPIMs device in each of its
//! [`DeviceMode`]s, the GPU-only roofline baseline, and the TransPIM
//! comparator — implements one trait, [`Backend`], exposing the two
//! operations batched LLM inference needs priced ([`Backend::prefill_cycles`]
//! and [`Backend::decode_iteration`]) plus enough self-description
//! ([`Backend::label`], [`Backend::caps`], [`Backend::peak_compute`]) for
//! harnesses to sweep heterogeneous systems uniformly.
//!
//! Everything above the device models is generic over this trait: the
//! [`Simulation`](crate::simulation::Simulation) builder, the serving loop
//! ([`ServingSim<B>`](crate::serving::ServingSim)), and the multi-chip
//! deployment wrapper ([`ShardedBackend`](crate::sharding::ShardedBackend)).
//! Adding a new accelerator model to every experiment, scheduler policy,
//! and serving scenario is therefore one `impl Backend` away.
//!
//! # Example
//!
//! ```
//! use neupims_core::backend::{Backend, GpuRooflineBackend};
//! use neupims_core::device::Device;
//! use neupims_types::LlmConfig;
//!
//! let model = LlmConfig::gpt3_7b();
//! let backends: Vec<Box<dyn Backend>> = vec![
//!     Box::new(Device::table2().unwrap()),
//!     Box::new(GpuRooflineBackend::a100()),
//! ];
//! for b in &backends {
//!     let iter = b
//!         .decode_iteration(&model, 4, model.num_layers, &[300; 64])
//!         .unwrap();
//!     println!("{:<10} {:>12} cycles", b.label(), iter.total_cycles());
//! }
//! ```

use std::borrow::Cow;

use neupims_pim::{calibrate, PimCalibration};
use neupims_sched::{CostModelKind, MhaCostModel, MhaLatencyEstimator, TraceMemo};
use neupims_types::{
    config::InterconnectConfig, Cycle, GpuSpec, LlmConfig, MemConfig, NeuPimsConfig, SimError,
};

use crate::device::{Device, DeviceMode, SbiPolicy};
use crate::gpu;
use crate::lowering::BlockMemo;
use crate::metrics::{IterationBreakdown, Utilization};
use crate::transpim;

/// Static capability flags of a backend, used by harnesses to decide which
/// metrics and experiments apply to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendCaps {
    /// The system has an NPU-class batched-GEMM engine.
    pub uses_npu: bool,
    /// MHA (or more) executes on in-memory compute units.
    pub uses_pim: bool,
    /// PIM banks carry dual row buffers (MEM traffic flows during PIM).
    pub dual_row_buffer: bool,
    /// The system batches requests within one decode iteration (TransPIM's
    /// token dataflow cannot).
    pub batched_mha: bool,
}

/// A quantified capability descriptor for one backend: the static
/// [`BackendCaps`] flags extended with the serving envelope a
/// meta-orchestrator needs to route against and the spin-up cost it must
/// price before new capacity becomes dispatchable.
///
/// Profiles are *derived* from the capability flags by default
/// ([`CapabilityProfile::for_caps`]): PIM-bearing systems hold the KV
/// cache in memory-resident compute banks, so they carry the long-context
/// envelope but pay a heavy warmup (IANUS-style model placement into the
/// unified memory pool before the first request can be served), while
/// NPU/GPU-class systems warm up quickly but top out at shorter contexts.
/// Backends with calibrated envelopes can override
/// [`Backend::capability_profile`] directly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapabilityProfile {
    /// The static capability flags of the backend.
    pub caps: BackendCaps,
    /// Longest context (prompt + generation tokens) the backend serves
    /// without spilling its KV envelope.
    pub max_context: u32,
    /// Largest per-iteration batch the backend sustains.
    pub max_batch: usize,
    /// Largest model size the backend can host, in billions of
    /// parameters.
    pub max_model_params_b: f64,
    /// Spin-up cost: cycles between the orchestrator committing a replica
    /// and that replica becoming dispatchable (model placement,
    /// precompilation). Priced as a
    /// [`SimEvent::ReplicaWarmup`](crate::event::SimEvent) on the event
    /// spine.
    pub warmup_cycles: Cycle,
}

impl CapabilityProfile {
    /// Derives the default serving envelope from capability flags.
    ///
    /// PIM-bearing backends (in-memory MHA) get the long-context envelope
    /// (4096 tokens) and the expensive warmup (8 Mcycles — weights must
    /// land in the PIM-partitioned memory pool); NPU/GPU-only backends
    /// get a 2048-token envelope and a 2 Mcycle warmup. Systems without
    /// batched MHA (TransPIM's token dataflow) cap the batch at 32.
    pub fn for_caps(caps: BackendCaps) -> Self {
        let (max_context, warmup_cycles) = if caps.uses_pim {
            (4096, 8_000_000)
        } else {
            (2048, 2_000_000)
        };
        Self {
            caps,
            max_context,
            max_batch: if caps.batched_mha { 256 } else { 32 },
            max_model_params_b: if caps.uses_npu { 175.0 } else { 30.0 },
            warmup_cycles,
        }
    }

    /// Whether a request of `context` total tokens (prompt + generation)
    /// fits this backend's context envelope.
    pub fn fits_context(&self, context: u32) -> bool {
        context <= self.max_context
    }
}

/// Error type of the backend API.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BackendError {
    /// The backend cannot perform the requested operation.
    Unsupported {
        /// Label of the refusing backend.
        backend: String,
        /// The unsupported operation.
        operation: String,
    },
    /// An underlying simulator error, tagged with the backend raising it.
    Sim {
        /// Label of the failing backend.
        backend: String,
        /// The underlying error.
        source: SimError,
    },
    /// A backend name passed to [`backend_from_name`] was not recognized.
    UnknownBackend(String),
    /// A [`Simulation`](crate::simulation::Simulation) was misconfigured.
    InvalidSimulation(String),
}

impl BackendError {
    /// Wraps a simulator error with the originating backend's label.
    pub fn sim(backend: &str, source: SimError) -> Self {
        BackendError::Sim {
            backend: backend.to_owned(),
            source,
        }
    }
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::Unsupported { backend, operation } => {
                write!(f, "backend {backend} does not support {operation}")
            }
            BackendError::Sim { backend, source } => write!(f, "[{backend}] {source}"),
            BackendError::UnknownBackend(name) => write!(
                f,
                "unknown backend {name:?} (expected one of: {})",
                ALL_BACKEND_NAMES.join(", ")
            ),
            BackendError::InvalidSimulation(msg) => write!(f, "invalid simulation: {msg}"),
        }
    }
}

impl std::error::Error for BackendError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BackendError::Sim { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<BackendError> for SimError {
    fn from(e: BackendError) -> Self {
        match e {
            BackendError::Sim { source, .. } => source,
            other => SimError::Scheduling(other.to_string()),
        }
    }
}

/// One priced decode iteration, tagged with the backend that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationResult {
    /// Label of the producing backend (borrowed when the label is a
    /// constant, so a decode iteration need not copy it).
    pub backend: Cow<'static, str>,
    /// The full per-resource breakdown.
    pub breakdown: IterationBreakdown,
}

impl IterationResult {
    /// Wraps a breakdown under a backend label.
    pub fn new(backend: impl Into<Cow<'static, str>>, breakdown: IterationBreakdown) -> Self {
        Self {
            backend: backend.into(),
            breakdown,
        }
    }

    /// Wall-clock cycles of the iteration.
    pub fn total_cycles(&self) -> Cycle {
        self.breakdown.total_cycles
    }

    /// Tokens produced by the iteration.
    pub fn tokens(&self) -> u64 {
        self.breakdown.tokens
    }

    /// Tokens per second at the device clock.
    pub fn tokens_per_sec(&self) -> f64 {
        self.breakdown.tokens_per_sec()
    }

    /// Resource utilization against a reference hardware configuration.
    pub fn utilization(&self, cfg: &NeuPimsConfig) -> Utilization {
        self.breakdown.utilization(cfg)
    }

    /// Unwraps the breakdown.
    pub fn into_breakdown(self) -> IterationBreakdown {
        self.breakdown
    }
}

/// An accelerator system that can price batched LLM inference.
///
/// Implementations must be deterministic: identical inputs produce
/// identical cycle counts (the experiment harness and the parity tests
/// rely on it). They must also be `Send + Sync`, so fleet replicas can
/// advance on [`std::thread::scope`] workers between dispatch points —
/// backends are pure pricing models, and shared mutable internals (e.g.
/// trace-replay memos) must synchronize themselves (the shipped
/// [`TraceMemo`] keeps its replays in per-bucket `OnceLock` slots that
/// fill once).
pub trait Backend: Send + Sync {
    /// Human-readable system label (e.g. `"NeuPIMs"`, `"GPU-only"`).
    fn label(&self) -> &str;

    /// Capability flags of the system.
    fn caps(&self) -> BackendCaps;

    /// The quantified capability descriptor the meta-orchestrator routes
    /// against: context/batch/model envelopes plus the spin-up cost. The
    /// default derives everything from [`Backend::caps`] (see
    /// [`CapabilityProfile::for_caps`]); backends with calibrated
    /// envelopes should override.
    fn capability_profile(&self) -> CapabilityProfile {
        CapabilityProfile::for_caps(self.caps())
    }

    /// Peak compute throughput in FLOPs per device cycle (1 GHz clock).
    fn peak_compute(&self) -> f64;

    /// Memory organization backing the KV cache when this backend serves
    /// (the paper's Section 8.1 fairness rule gives every baseline an
    /// equivalent memory system, so the Table 2 organization is the
    /// default).
    fn mem_config(&self) -> MemConfig {
        MemConfig::table2()
    }

    /// Inter-device link used by tensor/pipeline-parallel deployments.
    fn interconnect(&self) -> InterconnectConfig {
        InterconnectConfig::pcie_cxl()
    }

    /// The Algorithm 1 estimator for the PIM-resident GEMV share of decode
    /// MHA, when this backend has one (NPU+PIM systems).
    #[deprecated(
        since = "0.1.0",
        note = "use `mha_cost_model` — it prices MHA behind the `MhaCostModel` \
                trait (analytic or trace-driven) instead of hard-coding the \
                Algorithm 1 estimator"
    )]
    fn mha_estimator(&self, _model: &LlmConfig, _tp: u32) -> Option<MhaLatencyEstimator> {
        None
    }

    /// The cost-model kind this backend was configured to price its own
    /// decode iterations with ([`CostModelKind::Analytic`] unless the
    /// implementation carries a knob, like
    /// [`Device::with_cost_model`]). Serving layers use it as
    /// their default, so configuring the backend alone is enough for a
    /// coherent end-to-end run.
    fn preferred_cost_model(&self) -> CostModelKind {
        CostModelKind::Analytic
    }

    /// The MHA cost model for the PIM-resident GEMV share of decode MHA,
    /// when this backend has one (NPU+PIM systems). Iteration-level
    /// schedulers use it to price NPU/PIM phase overlap
    /// ([`SubBatchInterleaved`](crate::scheduler::SubBatchInterleaved));
    /// `None` marks a single-engine system, which overlaps nothing.
    ///
    /// `kind` selects the pricing fidelity: the Algorithm 1 closed form,
    /// or command-stream replay through the cycle-level DRAM model
    /// (backends without a cycle model fall back to analytic). The default
    /// implementation adapts the deprecated [`Backend::mha_estimator`], so
    /// existing backends keep working unchanged.
    fn mha_cost_model(
        &self,
        model: &LlmConfig,
        tp: u32,
        kind: CostModelKind,
    ) -> Option<Box<dyn MhaCostModel>> {
        let _ = kind; // only analytic is derivable from a bare estimator
        #[allow(deprecated)]
        self.mha_estimator(model, tp)
            .map(|e| Box::new(e) as Box<dyn MhaCostModel>)
    }

    /// Replaces this backend's trace-replay memo with a shared one, so
    /// every [`TraceDrivenCostModel`](neupims_sched::TraceDrivenCostModel)
    /// it hands out afterwards amortizes the same set of simulated command
    /// streams — the fleet-wide sharing hook
    /// ([`FleetSim::with_shared_trace_memo`](crate::fleet::FleetSim::with_shared_trace_memo)
    /// threads one memo through every replica). Memo keys carry the
    /// hardware fingerprint, so sharing across heterogeneous backends is
    /// sound: models never serve another configuration's cycles.
    ///
    /// Returns whether the memo was accepted. The default declines —
    /// backends without a cycle-level PIM (and immutable borrows, which
    /// cannot re-seat a memo) have nothing to share.
    fn attach_trace_memo(&mut self, _memo: &TraceMemo) -> bool {
        false
    }

    /// Prices the summarization (prefill) phase for a batch of prompts over
    /// `layers` decoder blocks at tensor parallelism `tp`.
    ///
    /// # Errors
    ///
    /// Rejects empty batches and zero layer counts; propagates model and
    /// compilation errors.
    fn prefill_cycles(
        &self,
        model: &LlmConfig,
        tp: u32,
        layers: u32,
        prompt_lens: &[u64],
    ) -> Result<Cycle, BackendError>;

    /// Prices one generation-phase iteration (one token per request in
    /// `seq_lens`) over `layers` decoder blocks at tensor parallelism `tp`.
    ///
    /// # Errors
    ///
    /// Rejects empty batches and zero layer counts; propagates model and
    /// compilation errors.
    fn decode_iteration(
        &self,
        model: &LlmConfig,
        tp: u32,
        layers: u32,
        seq_lens: &[u64],
    ) -> Result<IterationResult, BackendError>;
}

impl<B: Backend + ?Sized> Backend for &B {
    fn label(&self) -> &str {
        (**self).label()
    }

    fn caps(&self) -> BackendCaps {
        (**self).caps()
    }

    fn capability_profile(&self) -> CapabilityProfile {
        (**self).capability_profile()
    }

    fn peak_compute(&self) -> f64 {
        (**self).peak_compute()
    }

    fn mem_config(&self) -> MemConfig {
        (**self).mem_config()
    }

    fn interconnect(&self) -> InterconnectConfig {
        (**self).interconnect()
    }

    #[allow(deprecated)]
    fn mha_estimator(&self, model: &LlmConfig, tp: u32) -> Option<MhaLatencyEstimator> {
        (**self).mha_estimator(model, tp)
    }

    fn preferred_cost_model(&self) -> CostModelKind {
        (**self).preferred_cost_model()
    }

    fn mha_cost_model(
        &self,
        model: &LlmConfig,
        tp: u32,
        kind: CostModelKind,
    ) -> Option<Box<dyn MhaCostModel>> {
        (**self).mha_cost_model(model, tp, kind)
    }

    fn prefill_cycles(
        &self,
        model: &LlmConfig,
        tp: u32,
        layers: u32,
        prompt_lens: &[u64],
    ) -> Result<Cycle, BackendError> {
        (**self).prefill_cycles(model, tp, layers, prompt_lens)
    }

    fn decode_iteration(
        &self,
        model: &LlmConfig,
        tp: u32,
        layers: u32,
        seq_lens: &[u64],
    ) -> Result<IterationResult, BackendError> {
        (**self).decode_iteration(model, tp, layers, seq_lens)
    }
}

impl<B: Backend + ?Sized> Backend for Box<B> {
    fn label(&self) -> &str {
        (**self).label()
    }

    fn caps(&self) -> BackendCaps {
        (**self).caps()
    }

    fn capability_profile(&self) -> CapabilityProfile {
        (**self).capability_profile()
    }

    fn peak_compute(&self) -> f64 {
        (**self).peak_compute()
    }

    fn mem_config(&self) -> MemConfig {
        (**self).mem_config()
    }

    fn interconnect(&self) -> InterconnectConfig {
        (**self).interconnect()
    }

    #[allow(deprecated)]
    fn mha_estimator(&self, model: &LlmConfig, tp: u32) -> Option<MhaLatencyEstimator> {
        (**self).mha_estimator(model, tp)
    }

    fn preferred_cost_model(&self) -> CostModelKind {
        (**self).preferred_cost_model()
    }

    fn mha_cost_model(
        &self,
        model: &LlmConfig,
        tp: u32,
        kind: CostModelKind,
    ) -> Option<Box<dyn MhaCostModel>> {
        (**self).mha_cost_model(model, tp, kind)
    }

    fn attach_trace_memo(&mut self, memo: &TraceMemo) -> bool {
        (**self).attach_trace_memo(memo)
    }

    fn prefill_cycles(
        &self,
        model: &LlmConfig,
        tp: u32,
        layers: u32,
        prompt_lens: &[u64],
    ) -> Result<Cycle, BackendError> {
        (**self).prefill_cycles(model, tp, layers, prompt_lens)
    }

    fn decode_iteration(
        &self,
        model: &LlmConfig,
        tp: u32,
        layers: u32,
        seq_lens: &[u64],
    ) -> Result<IterationResult, BackendError> {
        (**self).decode_iteration(model, tp, layers, seq_lens)
    }
}

/// The NeuPIMs accelerator (or one of its ablation arms) as a backend, in
/// any [`DeviceMode`]: `NpuOnly` and `NaiveNpuPim` cover the paper's
/// simulator baselines, `NeuPims { .. }` covers the Figure 13 ablation
/// arms and the full system.
///
/// On a concrete `Device`, method-call syntax picks the inherent
/// [`Device::decode_iteration`] and [`Device::prefill_cycles`], which
/// return the bare breakdown and a [`SimError`]; call
/// `Backend::decode_iteration(&device, ..)` for the labelled
/// [`IterationResult`] and [`BackendError`].
impl Backend for Device {
    fn label(&self) -> &str {
        self.mode().label()
    }

    fn caps(&self) -> BackendCaps {
        BackendCaps {
            uses_npu: true,
            uses_pim: self.mode().uses_pim(),
            dual_row_buffer: self.mode().dual_row_buffer(),
            batched_mha: true,
        }
    }

    fn peak_compute(&self) -> f64 {
        self.config().npu.peak_flops_per_cycle() as f64
    }

    fn mem_config(&self) -> MemConfig {
        self.config().mem
    }

    fn interconnect(&self) -> InterconnectConfig {
        self.config().interconnect
    }

    #[allow(deprecated)]
    fn mha_estimator(&self, model: &LlmConfig, tp: u32) -> Option<MhaLatencyEstimator> {
        self.mode()
            .uses_pim()
            .then(|| Device::estimator(self, model, tp))
    }

    fn preferred_cost_model(&self) -> CostModelKind {
        Device::cost_model_kind(self)
    }

    fn mha_cost_model(
        &self,
        model: &LlmConfig,
        tp: u32,
        kind: CostModelKind,
    ) -> Option<Box<dyn MhaCostModel>> {
        Device::cost_model(self, model, tp, kind)
    }

    fn attach_trace_memo(&mut self, memo: &TraceMemo) -> bool {
        Device::attach_trace_memo(self, memo)
    }

    fn prefill_cycles(
        &self,
        model: &LlmConfig,
        tp: u32,
        layers: u32,
        prompt_lens: &[u64],
    ) -> Result<Cycle, BackendError> {
        Device::prefill_cycles(self, model, tp, layers, prompt_lens)
            .map_err(|e| BackendError::sim(Backend::label(self), e))
    }

    fn decode_iteration(
        &self,
        model: &LlmConfig,
        tp: u32,
        layers: u32,
        seq_lens: &[u64],
    ) -> Result<IterationResult, BackendError> {
        Device::decode_iteration(self, model, tp, layers, seq_lens)
            .map(|b| IterationResult::new(self.mode().label(), b))
            .map_err(|e| BackendError::sim(Backend::label(self), e))
    }
}

/// The GPU-only roofline baseline as a backend (A100-class by default).
#[derive(Debug, Clone)]
pub struct GpuRooflineBackend {
    gpu: GpuSpec,
    /// The decoder block's lowering, derived once per model shape (see
    /// [`BlockMemo`]).
    block: BlockMemo,
}

/// The label of [`GpuRooflineBackend`].
pub const GPU_LABEL: &str = "GPU-only";

impl GpuRooflineBackend {
    /// Builds the backend from a GPU spec.
    pub fn new(gpu: GpuSpec) -> Self {
        Self {
            gpu,
            block: BlockMemo::default(),
        }
    }

    /// The A100 roofline of the paper's GPU-only baseline.
    pub fn a100() -> Self {
        Self::new(GpuSpec::a100())
    }

    /// Overrides the memory bandwidth (the Section 8.1 fairness rule gives
    /// the GPU the same calibrated HBM the accelerator devices stream from).
    fn with_mem_bw(mut self, bytes_per_sec: f64) -> Self {
        self.gpu.mem_bw_bytes_per_sec = bytes_per_sec;
        self
    }

    /// The underlying GPU spec.
    pub fn gpu(&self) -> &GpuSpec {
        &self.gpu
    }
}

impl Backend for GpuRooflineBackend {
    fn label(&self) -> &str {
        GPU_LABEL
    }

    fn caps(&self) -> BackendCaps {
        BackendCaps {
            uses_npu: true, // GPU tensor cores play the NPU role
            uses_pim: false,
            dual_row_buffer: false,
            batched_mha: true,
        }
    }

    fn peak_compute(&self) -> f64 {
        // FLOP/s at a 1 GHz reference clock -> FLOPs per cycle.
        self.gpu.peak_fp16_flops / 1e9
    }

    fn prefill_cycles(
        &self,
        model: &LlmConfig,
        tp: u32,
        layers: u32,
        prompt_lens: &[u64],
    ) -> Result<Cycle, BackendError> {
        gpu::prefill_impl(&self.gpu, &self.block, model, tp, layers, prompt_lens)
            .map_err(|e| BackendError::sim(GPU_LABEL, e))
    }

    fn decode_iteration(
        &self,
        model: &LlmConfig,
        tp: u32,
        layers: u32,
        seq_lens: &[u64],
    ) -> Result<IterationResult, BackendError> {
        gpu::decode_impl(&self.gpu, &self.block, model, tp, layers, seq_lens)
            .map(|b| IterationResult::new(GPU_LABEL, b))
            .map_err(|e| BackendError::sim(GPU_LABEL, e))
    }
}

/// The TransPIM comparator (PIM-only token dataflow) as a backend.
#[derive(Debug, Clone)]
pub struct TransPimBackend {
    cfg: NeuPimsConfig,
    cal: PimCalibration,
}

impl TransPimBackend {
    /// Builds the backend from a memory configuration and calibration.
    pub fn new(cfg: NeuPimsConfig, cal: PimCalibration) -> Self {
        Self { cfg, cal }
    }

    /// TransPIM on the Table 2 memory system.
    ///
    /// # Errors
    ///
    /// Propagates calibration failures.
    pub fn table2() -> Result<Self, SimError> {
        let cfg = NeuPimsConfig::table2();
        let cal = calibrate(&cfg)?;
        Ok(Self::new(cfg, cal))
    }
}

/// The label of [`TransPimBackend`].
const TRANSPIM_LABEL: &str = "TransPIM";

impl Backend for TransPimBackend {
    fn label(&self) -> &str {
        TRANSPIM_LABEL
    }

    fn caps(&self) -> BackendCaps {
        BackendCaps {
            uses_npu: false,
            uses_pim: true,
            dual_row_buffer: false,
            batched_mha: false,
        }
    }

    fn peak_compute(&self) -> f64 {
        // In-bank MAC throughput: one FLOP per streamed fp16 pair element.
        self.cal.pim_stream_bw * self.cfg.mem.channels as f64
    }

    fn mem_config(&self) -> MemConfig {
        self.cfg.mem
    }

    fn interconnect(&self) -> InterconnectConfig {
        self.cfg.interconnect
    }

    fn prefill_cycles(
        &self,
        model: &LlmConfig,
        tp: u32,
        layers: u32,
        prompt_lens: &[u64],
    ) -> Result<Cycle, BackendError> {
        transpim::prefill_impl(&self.cfg, &self.cal, model, tp, layers, prompt_lens)
            .map_err(|e| BackendError::sim(self.label(), e))
    }

    fn decode_iteration(
        &self,
        model: &LlmConfig,
        tp: u32,
        layers: u32,
        seq_lens: &[u64],
    ) -> Result<IterationResult, BackendError> {
        transpim::decode_impl(&self.cfg, &self.cal, model, tp, layers, seq_lens)
            .map(|b| IterationResult::new(TRANSPIM_LABEL, b))
            .map_err(|e| BackendError::sim(self.label(), e))
    }
}

/// Canonical names accepted by [`backend_from_name`] (and the CLI's
/// `--backend` flag), in the paper's comparison order.
pub const BACKEND_NAMES: [&str; 5] = ["gpu", "npu-only", "naive", "neupims", "transpim"];

/// Every name [`backend_from_name`] accepts: the canonical five plus the
/// Figure 13 ablation arms.
pub const ALL_BACKEND_NAMES: [&str; 8] = [
    "gpu",
    "npu-only",
    "naive",
    "neupims",
    "transpim",
    "neupims-drb",
    "neupims-drb-gmlbp",
    "neupims-drb-gmlbp-sbi",
];

/// Builds a boxed backend from its CLI name.
///
/// Accepted names (case-insensitive): `gpu`/`gpu-only`, `npu-only`/`npu`,
/// `naive`/`npu-pim`/`npu+pim`, `neupims`, `neupims-drb`,
/// `neupims-drb-gmlbp`, `neupims-drb-gmlbp-sbi`, and `transpim`. The GPU
/// backend gets the Section 8.1 fairness treatment: A100 compute peaks over
/// the calibrated HBM bandwidth of `cfg`.
///
/// # Errors
///
/// Returns [`BackendError::UnknownBackend`] for unrecognized names.
pub fn backend_from_name(
    name: &str,
    cfg: &NeuPimsConfig,
    cal: &PimCalibration,
) -> Result<Box<dyn Backend>, BackendError> {
    backend_from_name_with_cost(name, cfg, cal, CostModelKind::Analytic)
}

/// Like [`backend_from_name`], but selecting the MHA cost model of the
/// PIM-bearing backends (`kind` is ignored by `gpu`, which has no PIM).
/// With [`CostModelKind::TraceDriven`] every decode iteration the backend
/// prices runs its GEMV streams through the cycle-level DRAM model
/// (memoized per context-length bucket).
///
/// # Errors
///
/// Returns [`BackendError::UnknownBackend`] for unrecognized names.
pub fn backend_from_name_with_cost(
    name: &str,
    cfg: &NeuPimsConfig,
    cal: &PimCalibration,
    kind: CostModelKind,
) -> Result<Box<dyn Backend>, BackendError> {
    Ok(match backend_kind(name) {
        // The Section 8.1 fairness rule: A100 compute peaks over the
        // calibrated HBM bandwidth of this memory system.
        Some(BackendKind::Gpu) => Box::new(
            GpuRooflineBackend::a100()
                .with_mem_bw(cal.mem_stream_bw * cfg.mem.channels as f64 * 1e9),
        ),
        Some(BackendKind::TransPim) => Box::new(TransPimBackend::new(*cfg, *cal)),
        Some(BackendKind::Device(mode)) => {
            Box::new(Device::new(*cfg, *cal, mode).with_cost_model(kind))
        }
        None => return Err(BackendError::UnknownBackend(name.to_ascii_lowercase())),
    })
}

/// Whether [`backend_from_name`] accepts `name`, checked without building
/// the backend (spec and flag parsing validate names this way).
pub fn is_backend_name(name: &str) -> bool {
    backend_kind(name).is_some()
}

enum BackendKind {
    Gpu,
    TransPim,
    Device(DeviceMode),
}

/// What backend `name` (case-insensitive, aliases included) builds, or
/// `None` for an unknown name.
fn backend_kind(name: &str) -> Option<BackendKind> {
    let neupims = |gmlbp, sbi| BackendKind::Device(DeviceMode::NeuPims { gmlbp, sbi });
    Some(match name.to_ascii_lowercase().as_str() {
        "gpu" | "gpu-only" => BackendKind::Gpu,
        "npu" | "npu-only" => BackendKind::Device(DeviceMode::NpuOnly),
        "naive" | "npu-pim" | "npu+pim" => BackendKind::Device(DeviceMode::NaiveNpuPim),
        "neupims" => BackendKind::Device(DeviceMode::neupims()),
        "neupims-drb" => neupims(false, SbiPolicy::Off),
        "neupims-drb-gmlbp" => neupims(true, SbiPolicy::Off),
        "neupims-drb-gmlbp-sbi" => neupims(true, SbiPolicy::Always),
        "transpim" => BackendKind::TransPim,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::table2_pair;

    fn table2() -> (NeuPimsConfig, PimCalibration) {
        table2_pair()
    }

    #[test]
    fn labels_and_caps() {
        let (cfg, cal) = table2();
        let neu = Device::new(cfg, cal, DeviceMode::neupims());
        assert_eq!(neu.label(), "NeuPIMs");
        assert!(neu.caps().uses_pim && neu.caps().dual_row_buffer);

        let npu = Device::new(cfg, cal, DeviceMode::NpuOnly);
        assert_eq!(npu.label(), "NPU-only");
        assert!(!npu.caps().uses_pim);

        let gpu = GpuRooflineBackend::a100();
        assert_eq!(gpu.label(), "GPU-only");
        assert!(!gpu.caps().uses_pim && gpu.caps().batched_mha);

        let tp = TransPimBackend::new(cfg, cal);
        assert_eq!(tp.label(), "TransPIM");
        assert!(tp.caps().uses_pim && !tp.caps().batched_mha);
    }

    #[test]
    fn peak_compute_is_positive_everywhere() {
        let (cfg, cal) = table2();
        let backends: Vec<Box<dyn Backend>> = vec![
            Box::new(Device::new(cfg, cal, DeviceMode::neupims())),
            Box::new(GpuRooflineBackend::a100()),
            Box::new(TransPimBackend::new(cfg, cal)),
        ];
        for b in &backends {
            assert!(b.peak_compute() > 0.0, "{}", b.label());
        }
    }

    #[test]
    fn registry_builds_every_published_name() {
        let (cfg, cal) = table2();
        let model = LlmConfig::gpt3_7b();
        for name in BACKEND_NAMES {
            let b = backend_from_name(name, &cfg, &cal).unwrap();
            let iter = b.decode_iteration(&model, 4, 8, &[128; 16]).unwrap();
            assert!(iter.total_cycles() > 0, "{name}");
            assert_eq!(iter.tokens(), 16, "{name}");
        }
        assert!(backend_from_name("quantum", &cfg, &cal).is_err());
    }

    #[test]
    fn registry_ablation_arms_are_distinct() {
        let (cfg, cal) = table2();
        let model = LlmConfig::gpt3_7b();
        let t = |name: &str| {
            backend_from_name(name, &cfg, &cal)
                .unwrap()
                .decode_iteration(&model, 4, model.num_layers, &[376; 256])
                .unwrap()
                .total_cycles()
        };
        let naive = t("naive");
        let drb = t("neupims-drb");
        let full = t("neupims");
        assert!(drb < naive, "DRB {drb} must beat naive {naive}");
        assert!(full <= drb, "full {full} must be <= DRB {drb}");
    }

    #[test]
    fn device_is_a_backend() {
        let (cfg, cal) = table2();
        let d = Device::new(cfg, cal, DeviceMode::neupims());
        let model = LlmConfig::gpt3_7b();
        let via_trait = Backend::decode_iteration(&d, &model, 4, 8, &[100; 8]).unwrap();
        let direct = d.decode_iteration(&model, 4, 8, &[100; 8]).unwrap();
        assert_eq!(via_trait.breakdown, direct);
        assert_eq!(via_trait.backend, "NeuPIMs");
    }

    #[test]
    fn errors_carry_backend_labels() {
        let (cfg, cal) = table2();
        let b = Device::new(cfg, cal, DeviceMode::neupims());
        let model = LlmConfig::gpt3_7b();
        let err = Backend::decode_iteration(&b, &model, 4, 8, &[]).unwrap_err();
        assert!(err.to_string().contains("NeuPIMs"), "{err}");
        let sim: SimError = err.into();
        assert!(matches!(sim, SimError::InvalidShape(_)));
    }

    #[test]
    fn prefill_works_on_all_backends() {
        let (cfg, cal) = table2();
        let model = LlmConfig::gpt3_7b();
        let backends: Vec<Box<dyn Backend>> = vec![
            Box::new(Device::new(cfg, cal, DeviceMode::neupims())),
            Box::new(GpuRooflineBackend::a100()),
            Box::new(TransPimBackend::new(cfg, cal)),
        ];
        for b in &backends {
            let short = b.prefill_cycles(&model, 4, 8, &[64; 4]).unwrap();
            let long = b.prefill_cycles(&model, 4, 8, &[512; 4]).unwrap();
            assert!(
                long > short,
                "{}: prefill must scale ({short} -> {long})",
                b.label()
            );
            assert!(b.prefill_cycles(&model, 4, 8, &[]).is_err());
        }
    }
}
