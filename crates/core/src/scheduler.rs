//! Iteration-level serving schedulers: how prefill shares the device with
//! decode.
//!
//! The paper's headline gain comes from *phase overlap*: NPU-side GEMM
//! work (prefill/QKV) running concurrently with PIM-side GEMV work (decode
//! attention) instead of serializing (Section 4, Algorithms 1 and 3). This
//! module makes that a serving-layer policy decision: a
//! [`SchedulerPolicy`] decides, at every iteration boundary of a
//! [`ServingSim`](crate::serving::ServingSim), how admitted prompts are
//! encoded and what one iteration costs. One policy ships,
//! [`PrefillScheduler`], whose three modes run one plan:
//!
//! * [`PrefillScheduler::Lump`] — prompts priced in one lump at admission
//!   and run on standalone NPUs (the historical `ServingSim` behavior,
//!   kept bit-for-bit for parity);
//! * [`PrefillScheduler::Chunked`] — Orca/vLLM-style on-device chunks,
//!   serialized with the decode batch;
//! * [`PrefillScheduler::Interleaved`] — the same chunks streamed on the
//!   NPU under the decode batch's PIM GEMV phases, split by Algorithm 3
//!   ([`SubBatchSides`]) and priced by Algorithm 1 behind the
//!   [`MhaCostModel`] trait ([`IterationDemand::cost_model`]: analytic by
//!   default, or trace-driven replay through the cycle-level DRAM model
//!   under the serving layer's cost-model knob).
//!
//! Every mode costs an iteration `decode + prefill − hidden`: lump has no
//! on-device prefill, and only interleaving hides any.
//!
//! The serving loop reports the consequences per iteration
//! ([`IterationOccupancy`]) and in aggregate
//! ([`ServingOutcome::overlap_efficiency`](crate::serving::ServingOutcome::overlap_efficiency)),
//! so the interleaving benefit is directly measurable.
//!
//! # Example
//!
//! ```
//! use std::num::NonZeroU32;
//!
//! use neupims_core::device::Device;
//! use neupims_core::scheduler::{scheduler_from_name, PrefillScheduler, SchedulerPolicy};
//! use neupims_core::serving::{ServingConfig, ServingSim};
//! use neupims_types::LlmConfig;
//!
//! let cfg = ServingConfig {
//!     max_batch: 8,
//!     tp: 4,
//!     layers: 32,
//!     target_completions: 0,
//!     slo: None,
//! };
//! let mut sim = ServingSim::with_scheduler(
//!     Device::table2().unwrap(),
//!     LlmConfig::gpt3_7b(),
//!     cfg,
//!     Box::new(PrefillScheduler::Interleaved(NonZeroU32::new(512).unwrap())),
//! );
//! sim.submit(0, 256, 4, 0).unwrap();
//! let out = sim.run().unwrap();
//! assert_eq!(out.completed, 1);
//! // The registry builds the same modes from their CLI names.
//! assert_eq!(scheduler_from_name("sbi", 512).unwrap().name(), "interleaved");
//! ```

use std::cell::Cell;
use std::num::NonZeroU32;

use neupims_sched::{MhaCostModel, SubBatchSides};
use neupims_types::{ChannelId, Cycle, LlmConfig, RequestId};

use crate::backend::{Backend, BackendError};
use crate::metrics::IterationBreakdown;
use crate::scratch::Lent;

/// Per-plan buffers, lent from [`PLAN_SCRATCH`] so a steady plan hands
/// its batch to the backend and splits it without allocating.
#[derive(Debug, Default)]
struct PlanScratch {
    /// The decode batch's context lengths.
    seqs: Vec<u64>,
    /// Each decode request's MHA estimate.
    costs: Vec<f64>,
    /// Each channel's GEMV load per sub-batch.
    loads: Vec<[f64; 2]>,
    /// Algorithm 3's per-channel quota.
    sides: SubBatchSides,
}

thread_local! {
    /// One [`PlanScratch`] per thread, lent to whichever policy plans on
    /// it.
    static PLAN_SCRATCH: Cell<PlanScratch> = Cell::new(PlanScratch::default());
}

/// How admission charges a prompt, as decided by
/// [`SchedulerPolicy::admission_charge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefillCharge {
    /// The whole prompt is priced now; the request joins decode iterations
    /// after this many cycles (prefill runs on standalone NPUs and never
    /// occupies the simulated device).
    Delay(Cycle),
    /// The prompt is encoded on-device, in chunks chosen by
    /// [`SchedulerPolicy::plan`]; the request joins decode once every
    /// prompt token has been processed.
    Chunked,
}

/// Chunked-prefill progress of one admitted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefillProgress {
    /// The request.
    pub id: RequestId,
    /// Prompt tokens already encoded.
    pub done: u64,
    /// Full prompt length.
    pub total: u64,
    /// Cycles already charged for the `done` tokens (the cumulative
    /// telescoped prefill price) — lets chunk pricing avoid re-pricing
    /// the prefix every iteration.
    pub charged: Cycle,
}

impl PrefillProgress {
    /// Prompt tokens still to encode.
    pub fn remaining(&self) -> u64 {
        self.total.saturating_sub(self.done)
    }
}

/// One prefill chunk a [`SchedulerPolicy::plan`] decided to encode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefillChunk {
    /// The request.
    pub id: RequestId,
    /// Prompt tokens encoded this iteration.
    pub tokens: u64,
    /// Cumulative prefill cycles of the prompt after this chunk (the
    /// backend price of `done + tokens` prompt tokens); the serving loop
    /// stores it back as [`PrefillProgress::charged`].
    pub charged_total: Cycle,
}

/// The work available at one iteration boundary, as seen by
/// [`SchedulerPolicy::plan`].
#[derive(Debug, Clone, Copy)]
pub struct IterationDemand<'a> {
    /// Decode-ready requests as `(id, current context length)`, in
    /// admission (FIFO) order. Each generates one token in the planned
    /// iteration.
    pub decode: &'a [(RequestId, u64)],
    /// Requests with unencoded prompt tokens, in admission (FIFO) order.
    /// Always empty under a [`PrefillCharge::Delay`] policy.
    pub prefill: &'a [PrefillProgress],
    /// The home KV channel of each decode-ready request, index-aligned
    /// with `decode`.
    pub homes: &'a [ChannelId],
    /// The MHA cost model pricing PIM GEMV phases, when the serving loop
    /// carries one (built once per run via [`Backend::mha_cost_model`], so
    /// trace-driven replay memos persist across iterations). `None` means
    /// the backend has no PIM to price, so the plan hides nothing under
    /// it; a caller planning outside a serving loop passes the backend's
    /// model itself.
    pub cost_model: Option<&'a dyn MhaCostModel>,
}

/// What a [`SchedulerPolicy`] decided one iteration executes and costs.
///
/// Invariant: `breakdown.total_cycles == decode_cycles + prefill_cycles -
/// hidden_cycles` (the serving loop debug-asserts it).
#[derive(Debug, Clone)]
pub struct IterationPlan {
    /// Prompt chunks encoded this iteration, per request.
    pub prefill: Vec<PrefillChunk>,
    /// The priced iteration; `total_cycles` is the wall-clock cost and the
    /// remaining counters are merged into the run totals.
    pub breakdown: IterationBreakdown,
    /// Cycles charged to the decode batch (the backend's iteration price).
    pub decode_cycles: Cycle,
    /// Cycles charged to on-device prefill chunks (0 under lump prefill).
    pub prefill_cycles: Cycle,
    /// Prefill cycles hidden under the decode batch's PIM GEMV phases by
    /// NPU/PIM interleaving (0 for serial policies).
    pub hidden_cycles: Cycle,
}

/// One iteration's occupancy, as
/// [`ServingSim::last_iteration`](crate::serving::ServingSim::last_iteration) reports it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IterationOccupancy {
    /// Simulated time at which the iteration started (wall clock includes
    /// the `Waited` gaps between iterations, so `start` of iteration
    /// `i + 1` can exceed `start + cycles` of iteration `i`).
    pub start: Cycle,
    /// Wall-clock cycles of the iteration.
    pub cycles: Cycle,
    /// Requests that generated a token.
    pub decode_requests: usize,
    /// Prompt tokens encoded by chunked prefill.
    pub prefill_tokens: u64,
    /// Cycles charged to the decode batch.
    pub decode_cycles: Cycle,
    /// Cycles charged to on-device prefill.
    pub prefill_cycles: Cycle,
    /// Prefill cycles hidden under PIM GEMV phases (NPU/PIM overlap).
    pub hidden_cycles: Cycle,
}

/// An iteration-level serving scheduler: decides how prompts are encoded
/// and what one iteration costs.
///
/// Implementations must be deterministic (identical demand produces
/// identical plans) — the parity and regression tests rely on it — and
/// `Send`, so replicas carrying them can advance on fleet worker threads.
pub trait SchedulerPolicy: std::fmt::Debug + Send {
    /// Policy name as accepted by [`scheduler_from_name`] and printed by
    /// the CLI.
    fn name(&self) -> &'static str;

    /// Clones the policy behind a box (lets fleets replicate one
    /// configured policy across serving sims).
    fn clone_box(&self) -> Box<dyn SchedulerPolicy>;

    /// Called once per admitted request: how its `prompt_len`-token prompt
    /// is charged.
    ///
    /// # Errors
    ///
    /// Propagates backend pricing errors (the serving loop fails the run:
    /// a backend that cannot price prefill is misconfigured).
    fn admission_charge(
        &self,
        backend: &dyn Backend,
        model: &LlmConfig,
        tp: u32,
        layers: u32,
        prompt_len: u64,
    ) -> Result<PrefillCharge, BackendError>;

    /// Plans and prices one iteration for the given demand. Called only
    /// when `demand` is non-empty (some request is decode-ready or has
    /// prompt tokens left).
    ///
    /// # Errors
    ///
    /// Propagates backend pricing errors.
    fn plan(
        &mut self,
        backend: &dyn Backend,
        model: &LlmConfig,
        tp: u32,
        layers: u32,
        demand: &IterationDemand<'_>,
    ) -> Result<IterationPlan, BackendError>;
}

impl Clone for Box<dyn SchedulerPolicy> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Prices the next prefill chunks FIFO within a per-iteration token
/// `budget`, incrementally: a chunk taking request `r` from `done` to
/// `done + take` tokens costs `prefill(done + take) − prefill(done)`, so a
/// fully chunked prompt telescopes to exactly its lump cost. The prefix
/// price is [`PrefillProgress::charged`] (carried forward by the serving
/// loop), so each chunk needs one backend pricing call, not two.
///
/// Returns `(chunks, total_cycles)`.
fn take_chunks(
    backend: &dyn Backend,
    model: &LlmConfig,
    tp: u32,
    layers: u32,
    prefill: &[PrefillProgress],
    budget: u64,
) -> Result<(Vec<PrefillChunk>, Cycle), BackendError> {
    let mut chunks = Vec::new();
    let mut cycles: Cycle = 0;
    let mut left = budget;
    for p in prefill {
        if left == 0 {
            break;
        }
        let take = p.remaining().min(left);
        if take == 0 {
            continue;
        }
        let to = backend.prefill_cycles(model, tp, layers, &[p.done + take])?;
        cycles += to.saturating_sub(p.charged);
        chunks.push(PrefillChunk {
            id: p.id,
            tokens: take,
            charged_total: to,
        });
        left -= take;
    }
    Ok((chunks, cycles))
}

/// Prices the decode batch of `demand` through the backend (`None` when no
/// request is decode-ready), its context lengths gathered into `seqs`.
fn price_decode(
    backend: &dyn Backend,
    model: &LlmConfig,
    tp: u32,
    layers: u32,
    demand: &IterationDemand<'_>,
    seqs: &mut Vec<u64>,
) -> Result<Option<IterationBreakdown>, BackendError> {
    seqs.clear();
    if demand.decode.is_empty() {
        return Ok(None);
    }
    seqs.extend(demand.decode.iter().map(|&(_, s)| s));
    Ok(Some(
        backend
            .decode_iteration(model, tp, layers, seqs)?
            .into_breakdown(),
    ))
}

/// The one shipped [`SchedulerPolicy`]: the same iteration in three
/// modes, which differ only in where prompts encode and whether their
/// NPU work hides under the decode batch's PIM GEMV phases.
///
/// Every mode plans alike: the prefill chunks within the mode's token
/// budget (none under lump, whose prefill queue is always empty), then the
/// backend-priced decode batch, then the NPU/PIM overlap (`hidden`,
/// interleaved only), and the iteration costs `decode + prefill − hidden`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefillScheduler {
    /// Each prompt is priced in one lump at admission
    /// ([`Backend::prefill_cycles`]) and runs on standalone NPUs, as in
    /// the paper's §4 deployment: the request joins decode iterations after
    /// that delay, and prefill never occupies the simulated device.
    Lump,
    /// Orca/vLLM-style: prompts encode on-device in chunks of at most this
    /// many tokens per iteration (FIFO across unfinished prompts),
    /// serialized with the decode batch. A chunk taking a prompt from
    /// `done` to `done + take` tokens costs `prefill(done + take) −
    /// prefill(done)`, so a fully chunked prompt telescopes to exactly its
    /// lump cost.
    Chunked(NonZeroU32),
    /// NeuPIMs-style: the chunks of [`Self::Chunked`], streamed on the NPU
    /// *under* the decode batch's PIM GEMV phases. Algorithm 3 splits the
    /// batch per home channel into two sub-batches; a sub-batch's phase is
    /// its slowest channel's load under [`IterationDemand::cost_model`],
    /// the two capped at the backend-priced decode iteration. Half the
    /// chunks' cost hides under each phase, at most the phase itself. A
    /// backend without both engines *and dual row buffers* (the naive
    /// NPU+PIM integration blocks all MEM traffic while PIM computes), or a
    /// demand without a cost model, hides nothing: the serial
    /// [`Self::Chunked`] cost.
    Interleaved(NonZeroU32),
}

impl PrefillScheduler {
    /// The per-iteration prefill token budget (0 under lump).
    fn budget(self) -> u64 {
        match self {
            Self::Lump => 0,
            Self::Chunked(b) | Self::Interleaved(b) => u64::from(b.get()),
        }
    }
}

impl SchedulerPolicy for PrefillScheduler {
    fn name(&self) -> &'static str {
        match self {
            Self::Lump => "lump",
            Self::Chunked(_) => "chunked",
            Self::Interleaved(_) => "interleaved",
        }
    }

    fn clone_box(&self) -> Box<dyn SchedulerPolicy> {
        Box::new(*self)
    }

    fn admission_charge(
        &self,
        backend: &dyn Backend,
        model: &LlmConfig,
        tp: u32,
        layers: u32,
        prompt_len: u64,
    ) -> Result<PrefillCharge, BackendError> {
        match self {
            Self::Lump => backend
                .prefill_cycles(model, tp, layers, &[prompt_len])
                .map(PrefillCharge::Delay),
            Self::Chunked(_) | Self::Interleaved(_) => Ok(PrefillCharge::Chunked),
        }
    }

    fn plan(
        &mut self,
        backend: &dyn Backend,
        model: &LlmConfig,
        tp: u32,
        layers: u32,
        demand: &IterationDemand<'_>,
    ) -> Result<IterationPlan, BackendError> {
        let (chunks, prefill_cycles) =
            take_chunks(backend, model, tp, layers, demand.prefill, self.budget())?;
        let mut scratch = Lent::take(&PLAN_SCRATCH);
        let PlanScratch {
            seqs,
            costs,
            loads,
            sides,
        } = &mut *scratch;
        let mut breakdown =
            price_decode(backend, model, tp, layers, demand, seqs)?.unwrap_or_default();
        let decode_cycles = breakdown.total_cycles;

        // NPU/PIM phase overlap: only meaningful when both engines exist
        // AND the banks carry dual row buffers — without them (the naive
        // NPU+PIM integration) the channel serves no MEM traffic while PIM
        // computes, so the NPU cannot stream prefill weights during GEMV
        // and nothing overlaps. Also requires an MHA cost model and
        // prefill work to hide under a decode batch.
        let hidden_cycles = match (*self, demand.cost_model) {
            (Self::Interleaved(_), Some(est))
                if prefill_cycles > 0 && !demand.decode.is_empty() && {
                    let caps = backend.caps();
                    caps.uses_npu && caps.uses_pim && caps.dual_row_buffer
                } =>
            {
                // Algorithm 3 over the ready requests' home channels: one
                // estimate per request (priced as one batch), added to its
                // channel's load on its sub-batch's side.
                sides.reset(demand.homes);
                loads.clear();
                loads.resize(sides.channels(), [0.0; 2]);
                est.estimate_into(seqs, costs);
                for (&cost, &home) in costs.iter().zip(demand.homes) {
                    let side = usize::from(!sides.next_is_first(home));
                    loads[home.index()][side] += cost;
                }
                // A sub-batch's GEMV phase is paced by its slowest channel.
                let phase =
                    |side: usize| loads.iter().map(|l| l[side]).fold(0.0, f64::max) * layers as f64;
                let (mut p1, mut p2) = (phase(0), phase(1));
                // The GEMV phases cannot exceed the decode iteration the
                // backend actually priced.
                let sum = p1 + p2;
                if sum > decode_cycles as f64 && sum > 0.0 {
                    let scale = decode_cycles as f64 / sum;
                    p1 *= scale;
                    p2 *= scale;
                }
                // Half the prefill stream hides under each PIM phase.
                let half = prefill_cycles as f64 / 2.0;
                (p1.min(half) + p2.min(half)) as Cycle
            }
            _ => 0,
        };

        breakdown.total_cycles += prefill_cycles - hidden_cycles;
        breakdown.npu_busy += prefill_cycles; // prefill GEMMs run on the NPU
        Ok(IterationPlan {
            prefill: chunks,
            breakdown,
            decode_cycles,
            prefill_cycles,
            hidden_cycles,
        })
    }
}

/// Canonical scheduler names accepted by [`scheduler_from_name`] (and the
/// CLI's `--scheduler` flag).
pub const SCHEDULER_NAMES: [&str; 3] = ["lump", "chunked", "interleaved"];

/// Builds a boxed [`PrefillScheduler`] from its CLI name
/// (case-insensitive; `lump-prefill`, `chunked-prefill`, `sbi`,
/// `sub-batch`, and `sub-batch-interleaved` are accepted aliases).
/// `chunk_tokens` is the per-iteration prefill token budget of the
/// chunked and interleaved modes (ignored by `lump`).
///
/// # Errors
///
/// Returns [`BackendError::InvalidSimulation`] for unrecognized names, or
/// a zero `chunk_tokens` with a chunked mode.
pub fn scheduler_from_name(
    name: &str,
    chunk_tokens: u32,
) -> Result<Box<dyn SchedulerPolicy>, BackendError> {
    let budget = || {
        NonZeroU32::new(chunk_tokens).ok_or_else(|| {
            BackendError::InvalidSimulation(
                "chunk_tokens must be positive for chunked schedulers".into(),
            )
        })
    };
    let scheduler = match name.to_ascii_lowercase().as_str() {
        "lump" | "lump-prefill" => PrefillScheduler::Lump,
        "chunked" | "chunked-prefill" => PrefillScheduler::Chunked(budget()?),
        "interleaved" | "sbi" | "sub-batch" | "sub-batch-interleaved" => {
            PrefillScheduler::Interleaved(budget()?)
        }
        other => {
            return Err(BackendError::InvalidSimulation(format!(
                "unknown scheduler {other:?} (expected one of: {})",
                SCHEDULER_NAMES.join(", ")
            )))
        }
    };
    Ok(Box::new(scheduler))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::GpuRooflineBackend;
    use crate::device::DeviceMode;
    use crate::testsupport::table2_device;
    use neupims_sched::CostModelKind;

    const BUDGET: NonZeroU32 = NonZeroU32::new(256).unwrap();

    type DemandFixtures = (Vec<(RequestId, u64)>, Vec<PrefillProgress>, Vec<ChannelId>);

    fn demand_fixtures() -> DemandFixtures {
        let decode: Vec<(RequestId, u64)> = (0..8u32).map(|i| (RequestId::new(i), 512)).collect();
        let prefill = vec![
            PrefillProgress {
                id: RequestId::new(100),
                done: 0,
                total: 700,
                charged: 0,
            },
            PrefillProgress {
                id: RequestId::new(101),
                done: 128,
                total: 256,
                charged: 0,
            },
        ];
        let homes = decode
            .iter()
            .map(|(id, _)| ChannelId::new(id.0 % 32))
            .collect();
        (decode, prefill, homes)
    }

    #[test]
    fn registry_builds_every_published_name() {
        for name in SCHEDULER_NAMES {
            assert_eq!(scheduler_from_name(name, 256).unwrap().name(), name);
        }
        assert_eq!(
            scheduler_from_name("SBI", 256).unwrap().name(),
            "interleaved"
        );
        assert_eq!(
            scheduler_from_name("lump-prefill", 0).unwrap().name(),
            "lump",
            "lump ignores the chunk budget"
        );
        assert!(scheduler_from_name("chunked", 0).is_err());
        assert!(scheduler_from_name("interleaved", 0).is_err());
        assert!(scheduler_from_name("magic", 256).is_err());
    }

    #[test]
    fn chunks_are_fifo_and_budgeted() {
        let backend = table2_device(DeviceMode::neupims());
        let model = LlmConfig::gpt3_7b();
        let (_, prefill, _) = demand_fixtures();
        let (chunks, cycles) = take_chunks(&backend, &model, 4, 32, &prefill, 256).unwrap();
        // The FIFO head absorbs the whole budget.
        let shape: Vec<(u32, u64)> = chunks.iter().map(|c| (c.id.0, c.tokens)).collect();
        assert_eq!(shape, vec![(100, 256)]);
        assert!(cycles > 0);
        assert!(chunks[0].charged_total > 0, "cumulative price rides along");
        // A larger budget spills into the second prompt, never past its end.
        let (chunks, _) = take_chunks(&backend, &model, 4, 32, &prefill, 1024).unwrap();
        let shape: Vec<(u32, u64)> = chunks.iter().map(|c| (c.id.0, c.tokens)).collect();
        assert_eq!(shape, vec![(100, 700), (101, 128)]);
    }

    #[test]
    fn chunk_costs_telescope_to_the_lump_cost() {
        let backend = table2_device(DeviceMode::neupims());
        let model = LlmConfig::gpt3_7b();
        let lump = Backend::prefill_cycles(&backend, &model, 4, 32, &[1000]).unwrap();
        let mut done = 0u64;
        let mut charged = 0u64;
        let mut total = 0u64;
        while done < 1000 {
            let p = [PrefillProgress {
                id: RequestId::new(0),
                done,
                total: 1000,
                charged,
            }];
            let (chunks, cycles) = take_chunks(&backend, &model, 4, 32, &p, 256).unwrap();
            done += chunks[0].tokens;
            charged = chunks[0].charged_total;
            total += cycles;
        }
        assert_eq!(total, lump, "chunked prefill must cost exactly its lump");
    }

    #[test]
    fn interleaved_hides_prefill_under_pim_phases() {
        let backend = table2_device(DeviceMode::neupims());
        let model = LlmConfig::gpt3_7b();
        let (decode, prefill, homes) = demand_fixtures();
        let analytic = backend.cost_model(&model, 4, CostModelKind::Analytic);
        let demand = IterationDemand {
            decode: &decode,
            prefill: &prefill,
            homes: &homes,
            cost_model: analytic.as_deref(),
        };
        let chunked = PrefillScheduler::Chunked(BUDGET)
            .plan(&backend, &model, 4, 32, &demand)
            .unwrap();
        let sbi = PrefillScheduler::Interleaved(BUDGET)
            .plan(&backend, &model, 4, 32, &demand)
            .unwrap();
        assert_eq!(chunked.hidden_cycles, 0);
        assert!(sbi.hidden_cycles > 0, "PIM phases must hide prefill");
        assert!(sbi.hidden_cycles <= sbi.prefill_cycles);
        assert!(sbi.hidden_cycles <= sbi.decode_cycles);
        assert!(sbi.breakdown.total_cycles < chunked.breakdown.total_cycles);
        assert_eq!(
            sbi.breakdown.total_cycles,
            sbi.decode_cycles + sbi.prefill_cycles - sbi.hidden_cycles
        );
    }

    #[test]
    fn interleaved_falls_back_to_serial_on_single_engine_backends() {
        let backend = GpuRooflineBackend::a100();
        let model = LlmConfig::gpt3_7b();
        let (decode, prefill, homes) = demand_fixtures();
        let demand = IterationDemand {
            decode: &decode,
            prefill: &prefill,
            homes: &homes,
            cost_model: None,
        };
        let sbi = PrefillScheduler::Interleaved(BUDGET)
            .plan(&backend, &model, 4, 32, &demand)
            .unwrap();
        let chunked = PrefillScheduler::Chunked(BUDGET)
            .plan(&backend, &model, 4, 32, &demand)
            .unwrap();
        assert_eq!(sbi.hidden_cycles, 0, "no PIM engine, nothing to overlap");
        assert_eq!(sbi.breakdown.total_cycles, chunked.breakdown.total_cycles);
    }

    #[test]
    fn interleaved_falls_back_to_serial_without_dual_row_buffers() {
        // Regression: the naive NPU+PIM integration has both engines and
        // an estimator, but its banks block all MEM traffic while PIM
        // computes — the NPU cannot stream prefill weights during GEMV,
        // so no cycle may be credited as hidden.
        let backend = table2_device(DeviceMode::NaiveNpuPim);
        assert!(backend.caps().uses_npu && backend.caps().uses_pim);
        assert!(!backend.caps().dual_row_buffer);
        let model = LlmConfig::gpt3_7b();
        let (decode, prefill, homes) = demand_fixtures();
        let analytic = backend.cost_model(&model, 4, CostModelKind::Analytic);
        assert!(
            analytic.is_some(),
            "blocked-mode PIM still has a cost model"
        );
        let demand = IterationDemand {
            decode: &decode,
            prefill: &prefill,
            homes: &homes,
            cost_model: analytic.as_deref(),
        };
        let sbi = PrefillScheduler::Interleaved(BUDGET)
            .plan(&backend, &model, 4, 32, &demand)
            .unwrap();
        assert_eq!(sbi.hidden_cycles, 0, "blocked-mode PIM cannot overlap");
        let chunked = PrefillScheduler::Chunked(BUDGET)
            .plan(&backend, &model, 4, 32, &demand)
            .unwrap();
        assert_eq!(sbi.breakdown.total_cycles, chunked.breakdown.total_cycles);
    }

    #[test]
    fn interleaved_without_a_cost_model_hides_nothing() {
        // Both engines and dual row buffers, but no model to price the PIM
        // phases with: the serial chunked cost, with no fallback model.
        let backend = table2_device(DeviceMode::neupims());
        let model = LlmConfig::gpt3_7b();
        let (decode, prefill, homes) = demand_fixtures();
        let demand = IterationDemand {
            decode: &decode,
            prefill: &prefill,
            homes: &homes,
            cost_model: None,
        };
        let sbi = PrefillScheduler::Interleaved(BUDGET)
            .plan(&backend, &model, 4, 32, &demand)
            .unwrap();
        let chunked = PrefillScheduler::Chunked(BUDGET)
            .plan(&backend, &model, 4, 32, &demand)
            .unwrap();
        assert_eq!(sbi.hidden_cycles, 0);
        assert!(sbi.prefill_cycles > 0 && sbi.decode_cycles > 0);
        assert_eq!(sbi.breakdown, chunked.breakdown);
    }

    #[test]
    fn prefill_only_iterations_cost_only_the_chunk() {
        let backend = table2_device(DeviceMode::neupims());
        let model = LlmConfig::gpt3_7b();
        let (_, prefill, _) = demand_fixtures();
        let demand = IterationDemand {
            decode: &[],
            prefill: &prefill,
            homes: &[],
            cost_model: None,
        };
        for mut policy in [
            PrefillScheduler::Chunked(BUDGET),
            PrefillScheduler::Interleaved(BUDGET),
        ] {
            let plan = policy.plan(&backend, &model, 4, 32, &demand).unwrap();
            assert_eq!(plan.decode_cycles, 0);
            assert_eq!(plan.hidden_cycles, 0);
            assert!(plan.prefill_cycles > 0);
            assert_eq!(plan.breakdown.total_cycles, plan.prefill_cycles);
            assert_eq!(plan.breakdown.tokens, 0, "prefill generates no tokens");
        }
    }

    /// Counts the estimates it serves; clones share the count.
    #[derive(Debug, Clone)]
    struct CountingModel {
        inner: neupims_sched::MhaLatencyEstimator,
        calls: std::sync::Arc<std::sync::atomic::AtomicUsize>,
    }

    impl MhaCostModel for CountingModel {
        fn name(&self) -> &'static str {
            "counting"
        }

        fn geometry(&self) -> &neupims_kvcache::KvGeometry {
            self.inner.geometry()
        }

        fn estimate(&self, seq_len: u64) -> f64 {
            self.calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.estimate(seq_len)
        }

        fn clone_box(&self) -> Box<dyn MhaCostModel> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn interleaved_plan_estimates_each_ready_request_once() {
        let backend = table2_device(DeviceMode::neupims());
        let model = LlmConfig::gpt3_7b();
        let counting = CountingModel {
            inner: backend.estimator(&model, 4),
            calls: Default::default(),
        };
        // Odd-sized channels, so Algorithm 3 alternates the extra request.
        let decode: Vec<(RequestId, u64)> = (0..13u32)
            .map(|i| (RequestId::new(i), 64 + 97 * u64::from(i)))
            .collect();
        let homes: Vec<ChannelId> = (0..13u32).map(|i| ChannelId::new(i % 3)).collect();
        let (_, prefill, _) = demand_fixtures();
        let demand = IterationDemand {
            decode: &decode,
            prefill: &prefill,
            homes: &homes,
            cost_model: Some(&counting),
        };
        let plan = PrefillScheduler::Interleaved(BUDGET)
            .plan(&backend, &model, 4, 32, &demand)
            .unwrap();
        assert!(plan.hidden_cycles > 0, "the sub-batch phases were priced");
        assert_eq!(
            counting.calls.load(std::sync::atomic::Ordering::Relaxed),
            decode.len()
        );
    }

    #[test]
    fn boxed_policies_clone() {
        let b: Box<dyn SchedulerPolicy> = Box::new(PrefillScheduler::Interleaved(BUDGET));
        let c = b.clone();
        assert_eq!(c.name(), "interleaved");
    }
}
