//! End-to-end inference serving over one simulated device.
//!
//! Ties the stack together the way Figure 7 draws it: streaming arrivals
//! feed the request pool table; at every iteration boundary the Orca-style
//! scheduler admits requests (bounded by batch cap and paged-KV capacity),
//! the configured [`SchedulerPolicy`] plans and prices the iteration
//! (decode batch plus, for chunked policies, on-device prefill chunks),
//! and finished requests release their pages.
//!
//! How summarization (prefill) is charged is the scheduler's call. Under
//! the default [`PrefillScheduler::Lump`] mode it is
//! delegated to standalone NPUs as in the paper: admission prices each
//! prompt with [`Backend::prefill_cycles`] and the request only joins
//! decode iterations once that delay has elapsed. Under
//! [`PrefillScheduler::Chunked`] and [`PrefillScheduler::Interleaved`] the
//! prompt is encoded on-device in token chunks that share iterations with
//! decode — serially for the former, overlapped with the decode batch's
//! PIM GEMV phases for the latter (the paper's NPU/PIM interleaving). In
//! every case the first generated token lands a real prefill latency
//! after admission, which is what the per-request TTFT (time-to-first-
//! token) metric measures; TPOT (time-per-output-token) covers the decode
//! tail. [`ServingOutcome`] reports both as percentile distributions next
//! to end-to-end latency, plus SLO attainment and goodput against
//! caller-supplied [`SloTargets`], and sums occupancy and NPU/PIM overlap
//! in O(1) memory ([`ServingOutcome::mean_decode_batch`],
//! [`ServingOutcome::overlap_efficiency`], [`ServingSim::last_iteration`]).
//!
//! How the run behaves when the paged KV cache runs out of pages is a
//! second policy axis ([`ServingSim::with_preemption`], default
//! [`DropOnly`]): under drop-only, admission
//! out-of-memory defers the request (head-of-line FIFO, the historical
//! behavior) and a request whose growth is blocked by a *crowded* channel
//! is shed (a context that has *saturated* a whole channel instead pins
//! at capacity, as it always has — no eviction could help it); under
//! [`RecomputeLastAdmitted`](crate::preempt::RecomputeLastAdmitted)
//! or [`SwapLru`](crate::preempt::SwapLru) the policy instead selects
//! victims, their pages are released, and the victims are parked in a
//! preempted queue to be restored FIFO as pages free up — re-paying
//! prefill over their grown context (recompute) or a PCIe-style transfer
//! of their saved pages ([`SwapConfig`]).
//! [`ServingOutcome`] counts the traffic (`preemptions`, `restores`,
//! `preemption_stall_cycles`, `restore_overhead_cycles`), and a run built
//! [`ServingSim::with_records`] each completed request's
//! [`RequestMetrics::preemptions`].
//!
//! Requests whose context can never fit the KV cache (they would not fit
//! even an empty channel) are *dropped* and counted in
//! [`ServingOutcome::dropped`] rather than silently vanishing — as are
//! requests shed or parked hopelessly under KV pressure — so
//! `completed + dropped == submitted` holds for every drained run, with
//! preemptions tracked separately (a preempted-then-restored request
//! counts once, as completed).
//!
//! The simulation advances through a public [`ServingSim::step`] API (one
//! iteration boundary per call), which is what lets
//! [`FleetSim`](crate::fleet::FleetSim) interleave many replicas and
//! dispatch arrivals against live queue snapshots.
//!
//! # Example
//!
//! ```
//! use std::num::NonZeroU32;
//!
//! use neupims_core::device::Device;
//! use neupims_core::scheduler::PrefillScheduler;
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
//! // Default scheduler (lump prefill) ...
//! let mut sim = ServingSim::new(Device::table2().unwrap(), LlmConfig::gpt3_7b(), cfg.clone());
//! sim.submit(0, 128, 4, 0).unwrap();
//! let out = sim.run().unwrap();
//! assert_eq!(out.completed, 1);
//! assert_eq!(out.tokens, 4);
//!
//! // ... or NPU/PIM sub-batch interleaving.
//! let mut sim = ServingSim::with_scheduler(
//!     Device::table2().unwrap(),
//!     LlmConfig::gpt3_7b(),
//!     cfg,
//!     Box::new(PrefillScheduler::Interleaved(NonZeroU32::new(256).unwrap())),
//! );
//! sim.submit(0, 128, 4, 0).unwrap();
//! assert_eq!(sim.run().unwrap().completed, 1);
//! ```

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::Arc;

use neupims_kvcache::{KvAlloc, KvGeometry, PagedKvCache};
use neupims_sched::{CostModelKind, MhaCostModel, RequestPool, TraceMemo, TraceSnapshot};
use neupims_types::{ChannelId, Cycle, IdMap, IdRuns, LlmConfig, Request, RequestId, SimError};

use crate::backend::Backend;
use crate::device::Device;
use crate::event::{EventQueue, SimEvent};
use crate::fleet::FleetRequest;
use crate::metrics::IterationBreakdown;
use crate::preempt::{DropOnly, PreemptionPolicy, RestoreMode, SwapConfig, VictimCandidate};
use crate::scheduler::{
    IterationDemand, IterationOccupancy, PrefillCharge, PrefillProgress, PrefillScheduler,
    SchedulerPolicy,
};
use crate::scratch::Lent;

/// Latency service-level objectives of a serving run, in device cycles
/// (1 GHz clock: 1 ms = 1e6 cycles).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloTargets {
    /// Maximum acceptable time-to-first-token (arrival to first generated
    /// token), cycles.
    pub ttft: Cycle,
    /// Maximum acceptable time-per-output-token (mean decode gap after
    /// the first token), cycles per token.
    pub tpot: f64,
}

impl SloTargets {
    /// Targets given in milliseconds.
    pub fn from_ms(ttft_ms: f64, tpot_ms: f64) -> Self {
        Self {
            ttft: (ttft_ms * 1e6) as Cycle,
            tpot: tpot_ms * 1e6,
        }
    }
}

/// Serving-run parameters.
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// Maximum running batch size.
    pub max_batch: usize,
    /// Tensor-parallel degree of the deployment.
    pub tp: u32,
    /// Decoder layers resident on this device (after pipeline sharding).
    pub layers: u32,
    /// Stop after this many completed requests (0 = drain all arrivals).
    pub target_completions: u64,
    /// Latency SLOs; `None` means every completed request counts as
    /// attained (so on drained runs goodput equals throughput).
    pub slo: Option<SloTargets>,
}

/// Per-request timing record of one completed request, kept only by a
/// simulation built [`ServingSim::with_records`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestMetrics {
    /// The request.
    pub id: RequestId,
    /// Arrival time at the serving frontend.
    pub arrival: Cycle,
    /// Time-to-first-token: arrival to the end of the first decode
    /// iteration the request participated in (which follows its charged
    /// prefill delay).
    pub ttft: Cycle,
    /// End-to-end latency: arrival to completion.
    pub latency: Cycle,
    /// Generated tokens (the request's `output_len`).
    pub tokens: u32,
    /// How many times the request was preempted (KV pages evicted and
    /// later restored) before completing; 0 under drop-only.
    pub preemptions: u32,
    /// The tenant the request was served for: its position in the
    /// [`Orchestrator`](crate::orchestrator::Orchestrator)'s tenant table
    /// (0 in a [`FleetSim`](crate::fleet::FleetSim)), or
    /// [`Request::NO_TENANT`] for a request submitted straight to its
    /// [`ServingSim`].
    pub tenant: u32,
}

impl RequestMetrics {
    /// Time-per-output-token: mean decode gap over the tokens after the
    /// first one; 0 for single-token requests.
    pub fn tpot(&self) -> f64 {
        tpot(self.ttft, self.latency, self.tokens)
    }
}

/// Time-per-output-token of a request that generated `tokens` tokens:
/// its mean decode gap after the first token, 0 for a single token.
fn tpot(ttft: Cycle, latency: Cycle, tokens: u32) -> f64 {
    if tokens > 1 {
        (latency - ttft) as f64 / (tokens - 1) as f64
    } else {
        0.0
    }
}

/// What a replica keeps of its completed requests: one entry per request
/// in each sample column, in completion order. The latency, TTFT and TPOT
/// statistics of [`ServingOutcome`] and
/// [`FleetOutcome`](crate::fleet::FleetOutcome) are computed from it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Samples {
    /// End-to-end latencies (arrival to completion), cycles.
    pub latencies: Vec<Cycle>,
    /// Times to first token, cycles.
    pub ttfts: Vec<Cycle>,
    /// Times per output token, cycles per token (see
    /// [`RequestMetrics::tpot`]).
    pub tpots: Vec<f64>,
    /// Each request's tenant and tokens, aligned with the columns above:
    /// what an [`Orchestrator`](crate::orchestrator::Orchestrator)'s
    /// tenant outcomes are folded from.
    pub(crate) tenants: Vec<TenantSample>,
    /// `(position, cycles)` of each request an orchestrator held before
    /// dispatching it (admission deferral or a warmup wait), by ascending
    /// position; empty when none was held. Its tenant's TTFT and latency
    /// count those cycles; the replica's do not.
    pub(crate) held: Vec<(usize, Cycle)>,
}

/// The tenant and generated tokens of one completed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TenantSample {
    /// As [`RequestMetrics::tenant`].
    pub(crate) tenant: u32,
    /// As [`RequestMetrics::tokens`].
    pub(crate) tokens: u32,
}

/// Outcome statistics of a serving run.
///
/// The per-request statistics ([`Self::mean_latency`] and the latency,
/// TTFT and TPOT percentiles) are computed from [`Self::samples`] on each
/// call, so an outcome holds no second, sorted copy of its samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServingOutcome {
    /// Total simulated cycles.
    pub total_cycles: Cycle,
    /// Requests accepted by [`ServingSim::submit`].
    pub submitted: u64,
    /// Completed requests.
    pub completed: u64,
    /// Requests dropped because their context could never fit the KV
    /// cache (head-of-line OOM against an empty channel), was shed under
    /// drop-only KV pressure (growth blocked by a crowded channel), or
    /// outgrew a channel while parked. For a drained run,
    /// `completed + dropped == submitted`.
    pub dropped: u64,
    /// Preemption events: a running request's KV pages were evicted to
    /// relieve pressure and the request was parked for later restoration
    /// (always 0 under the default drop-only policy, which sheds instead
    /// of parking).
    pub preemptions: u64,
    /// Restore events: a parked request re-reserved pages and rejoined
    /// the running batch. On a drained run every preemption is either
    /// restored or (rarely, when the parked context outgrew a channel)
    /// dropped.
    pub restores: u64,
    /// Total cycles preempted requests spent parked (preemption to
    /// restore, summed over restore events) — the wall-clock stall
    /// preemption injected into those requests' latencies.
    pub preemption_stall_cycles: Cycle,
    /// Extra work charged to restores: re-paid prefill cycles for
    /// recompute victims plus swap-in transfer cycles for swap victims.
    pub restore_overhead_cycles: Cycle,
    /// Generated tokens — all decode work performed, including the
    /// partial output of requests later shed under KV pressure (so on
    /// runs with mid-flight drops this can exceed the sum of completed
    /// requests' tokens; preempted-then-restored requests count each
    /// token exactly once).
    pub tokens: u64,
    /// Iterations executed (decode iterations, plus prefill-only
    /// iterations under chunked schedulers).
    pub iterations: u64,
    /// The completed requests' samples in completion order, shared with
    /// the simulation that produced them: taking an outcome copies no
    /// sample, and the simulation copies them only if it completes another
    /// request while this outcome still holds them (copy-on-write), so an
    /// outcome keeps exactly the samples completed when it was taken.
    pub samples: Arc<Samples>,
    /// Per-request records in completion order, shared like
    /// [`Self::samples`]. Empty unless the simulation was built
    /// [`ServingSim::with_records`].
    pub records: Arc<Vec<RequestMetrics>>,
    /// Aggregated iteration counters. Under the chunked schedulers,
    /// on-device prefill contributes to `total_cycles` and `npu_busy` but
    /// not to `npu_flops`/`bus_bytes` (the [`Backend`] prefill API prices
    /// cycles only), so utilization derived from these totals covers
    /// decode work; use [`Self::prefill_cycles_on_device`] to account the
    /// prefill share separately.
    pub totals: IterationBreakdown,
    /// Peak KV-cache utilization observed, `[0, 1]` (sampled after token
    /// growth and at every out-of-memory instant — before completion or
    /// preemption releases — so it is the true page high-water mark even
    /// under KV pressure).
    pub peak_kv_utilization: f64,
    /// Completed requests meeting the configured [`SloTargets`] (all of
    /// them when no SLO was configured).
    pub slo_attained: u64,
    /// Tokens generated by SLO-attaining requests (the goodput
    /// numerator).
    pub goodput_tokens: u64,
    /// Decode-batch sizes summed over all iterations.
    pub decode_batch_sum: u64,
    /// Cycles charged to on-device prefill chunks across the run (0 under
    /// lump prefill, which runs prompts on standalone NPUs).
    pub prefill_cycles_on_device: Cycle,
    /// Prefill cycles hidden under decode PIM GEMV phases by NPU/PIM
    /// sub-batch interleaving (0 for serial schedulers).
    pub overlap_hidden_cycles: Cycle,
    /// DRAM channel activity of the trace-driven MHA cost model, when the
    /// run used one (`None` under analytic pricing): row-buffer hit/miss
    /// counts, command counts, and bus-busy cycles of every distinct GEMV
    /// command stream simulated, plus the memoization balance. Memo hits
    /// reuse a prior stream's cycles, so the counters describe the
    /// distinct streams, not per-iteration traffic.
    pub pim_trace: Option<TraceSnapshot>,
}

/// Nearest-rank percentile over a sorted slice; `T::default()` when empty.
///
/// Panics if `p` is outside `[0, 100]`.
pub(crate) fn nearest_rank<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
    if sorted.is_empty() {
        return T::default();
    }
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize - 1;
    sorted[rank.min(n - 1)]
}

/// [`nearest_rank`] over `samples` once sorted by `cmp`.
///
/// Panics if `p` is outside `[0, 100]`.
fn percentile_of<T: Copy + Default>(
    mut samples: Vec<T>,
    p: f64,
    cmp: impl FnMut(&T, &T) -> std::cmp::Ordering,
) -> T {
    samples.sort_unstable_by(cmp);
    nearest_rank(&samples, p)
}

impl ServingOutcome {
    /// Serving throughput in generated tokens per second.
    pub fn tokens_per_sec(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.tokens as f64 / neupims_types::units::cycles_to_secs(self.total_cycles)
        }
    }

    /// Goodput: tokens per second from *completed* requests that met the
    /// SLO targets. On a drained run with no SLO configured this equals
    /// [`Self::tokens_per_sec`]; under `target_completions` early
    /// stopping it is lower, since tokens from still-running requests
    /// count toward throughput but not goodput.
    pub fn goodput(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.goodput_tokens as f64 / neupims_types::units::cycles_to_secs(self.total_cycles)
        }
    }

    /// Fraction of completed requests meeting the SLO targets, `[0, 1]`
    /// (0 when nothing completed).
    pub fn slo_attainment(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.slo_attained as f64 / self.completed as f64
        }
    }

    /// Mean request latency (arrival to completion) in cycles; 0 when no
    /// request completed.
    pub fn mean_latency(&self) -> f64 {
        let latencies = &self.samples.latencies;
        latencies.iter().sum::<u64>() as f64 / latencies.len().max(1) as f64
    }

    /// End-to-end latency at percentile `p` (in `[0, 100]`), cycles; 0
    /// when no request completed. Uses nearest-rank over the latency
    /// samples.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn latency_percentile(&self, p: f64) -> Cycle {
        percentile_of(self.samples.latencies.clone(), p, Ord::cmp)
    }

    /// Time-to-first-token at percentile `p`, cycles; 0 when no request
    /// completed.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn ttft_percentile(&self, p: f64) -> Cycle {
        percentile_of(self.samples.ttfts.clone(), p, Ord::cmp)
    }

    /// Time-per-output-token at percentile `p`, cycles per token; 0 when
    /// no request completed.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn tpot_percentile(&self, p: f64) -> f64 {
        percentile_of(self.samples.tpots.clone(), p, f64::total_cmp)
    }

    /// NPU/PIM overlap efficiency: the fraction of on-device prefill
    /// cycles hidden under decode PIM GEMV phases,
    /// `overlap_hidden_cycles / prefill_cycles_on_device` in `[0, 1]`.
    ///
    /// 0 for scheduler modes that never put prefill on-device
    /// ([`PrefillScheduler::Lump`]) or never overlap it
    /// ([`PrefillScheduler::Chunked`]); approaches 1 when
    /// [`PrefillScheduler::Interleaved`] hides the whole prefill stream
    /// under decode.
    pub fn overlap_efficiency(&self) -> f64 {
        if self.prefill_cycles_on_device == 0 {
            0.0
        } else {
            self.overlap_hidden_cycles as f64 / self.prefill_cycles_on_device as f64
        }
    }

    /// Mean decode batch size per iteration (the occupancy of the running
    /// batch); 0 when no iteration executed. Divide by the configured
    /// `max_batch` for a `[0, 1]` occupancy fraction.
    pub fn mean_decode_batch(&self) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            self.decode_batch_sum as f64 / self.iterations as f64
        }
    }
}

/// What one [`ServingSim::step`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// Executed one iteration: a decode iteration for the ready sub-batch
    /// and/or (under chunked schedulers) on-device prefill chunks.
    Iteration,
    /// No request was decode-ready or prefilling on-device; the clock
    /// jumped to the next arrival or lump-prefill completion time.
    Waited,
    /// The head of the waiting queue could never be admitted (its context
    /// exceeds an empty KV channel) and was dropped.
    Dropped(RequestId),
    /// Nothing left to do: all work drained or the completion target was
    /// reached.
    Finished,
}

/// The serving loop's state of one admitted request, kept beside it in
/// the running batch from admission until the request completes or is
/// dropped. A parked (preempted) request carries its record in
/// [`Parked`], with no KV allocation, until it is restored.
#[derive(Debug)]
struct InFlight {
    /// Its KV pages and the channel they live on; `None` while parked.
    kv: Option<KvAlloc>,
    /// Lump-prefill (or restore) completion time: the request joins
    /// decode iterations only once the clock reaches it (0: no gate).
    ready_at: Cycle,
    /// Whether its prompt is still being encoded on-device in chunks (it
    /// then has an entry in [`ServingSim::prefilling`]).
    prefilling: bool,
    /// End of the first decode iteration it took part in.
    first_token: Option<Cycle>,
    /// Admission sequence number (the LIFO victim axis).
    admit_seq: u64,
    /// End of its last decode iteration (the LRU victim axis); reset to 0
    /// by preemption.
    last_decoded: Cycle,
    /// The iteration (1-based) in which it last grew a token.
    grew_in: u64,
    /// Times it was preempted (reported in its record).
    preemptions: u32,
}

impl InFlight {
    fn admitted(kv: KvAlloc, admit_seq: u64) -> Self {
        Self {
            kv: Some(kv),
            ready_at: 0,
            prefilling: false,
            first_token: None,
            admit_seq,
            last_decoded: 0,
            grew_in: 0,
            preemptions: 0,
        }
    }

    /// Gates its decoding on `charge` at `now`: a delay readies it that
    /// many cycles later, when `ready(id)` fires; on-device encoding marks
    /// it prefilling and returns the progress of its `prompt` tokens, for
    /// the caller to queue in [`ServingSim::prefilling`].
    fn gate(
        &mut self,
        id: RequestId,
        charge: PrefillCharge,
        prompt: u64,
        now: Cycle,
        ready: fn(RequestId) -> SimEvent,
        events: &mut EventQueue,
    ) -> Option<PrefillProgress> {
        match charge {
            PrefillCharge::Delay(d) => {
                self.ready_at = now + d;
                events.push_after(now, self.ready_at, ready(id));
                None
            }
            PrefillCharge::Chunked => {
                self.prefilling = true;
                Some(PrefillProgress {
                    id,
                    done: 0,
                    total: prompt,
                    charged: 0,
                })
            }
        }
    }

    /// Whether its prompt is fully encoded at `now` (lump delay elapsed
    /// and no chunk outstanding).
    fn decode_ready(&self, now: Cycle) -> bool {
        self.ready_at <= now && !self.prefilling
    }

    /// Its KV allocation; running requests always hold one.
    fn alloc(&self) -> &KvAlloc {
        self.kv.as_ref().expect("running requests hold KV pages")
    }

    /// [`Self::alloc`], mutably.
    fn alloc_mut(&mut self) -> &mut KvAlloc {
        self.kv.as_mut().expect("running requests hold KV pages")
    }
}

/// The decode-ready sub-batch of one step: `(id, context length)` in
/// running-batch order, and each request's home channel.
#[derive(Debug, Default)]
struct ReadyList {
    ready: Vec<(RequestId, u64)>,
    homes: Vec<ChannelId>,
}

thread_local! {
    /// One ready-list buffer per thread, lent to whichever replica steps
    /// on it. Steps reuse its allocation, and a fleet holds one buffer
    /// per worker thread rather than one per replica.
    static READY_SCRATCH: Cell<ReadyList> = const {
        Cell::new(ReadyList {
            ready: Vec::new(),
            homes: Vec::new(),
        })
    };
}

/// One parked (preempted) request awaiting restoration.
#[derive(Debug)]
struct Parked {
    /// The request, generation progress intact.
    req: Request,
    /// Its record, with no KV allocation.
    rec: InFlight,
    /// When it was preempted (stall accounting).
    at: Cycle,
    /// Bytes its evicted pages held (the swap transfer size).
    bytes: u64,
}

/// An iteration-level serving simulation over one simulated system.
///
/// Generic over [`Backend`], so the same Orca-style scheduler, request
/// pool, and paged KV cache drive the NeuPIMs device (the default type
/// parameter, preserving the original API), the GPU roofline, TransPIM, or
/// any future accelerator model.
///
/// A completed request is folded into the replica's latency, TTFT and
/// TPOT [`Samples`] and its SLO attainment and goodput counters; its
/// [`RequestMetrics`] record is kept only when the simulation is built
/// [`Self::with_records`].
#[derive(Debug)]
pub struct ServingSim<B: Backend = Device> {
    backend: B,
    model: LlmConfig,
    cfg: ServingConfig,
    scheduler: Box<dyn SchedulerPolicy>,
    /// Which MHA cost model the run prices PIM phases with.
    cost_kind: CostModelKind,
    /// The cost model instance, built once per run so trace-driven replay
    /// memos persist across iterations (`None` on backends without PIM).
    cost_model: Option<Box<dyn MhaCostModel>>,
    /// The request pool; each running request's [`InFlight`] record sits
    /// beside it. Waiting requests have none, and a parked request's
    /// record travels in [`Parked`].
    pool: RequestPool<InFlight>,
    kv: PagedKvCache,
    /// Chunked-prefill progress of the requests still encoding their
    /// prompt, in admission (FIFO) order; an entry leaves once its prompt
    /// is fully processed.
    prefilling: Vec<PrefillProgress>,
    /// The ids [`Self::submit`] accepted. Requests an orchestrator
    /// dispatches skip it: the orchestrator keeps the fleet-wide set.
    seen: IdRuns,
    now: Cycle,
    /// Completed requests' samples, shared with the outcomes taken so far
    /// (see [`ServingOutcome::samples`]).
    samples: Arc<Samples>,
    /// Completed requests meeting [`ServingConfig::slo`], and their tokens.
    slo_attained: u64,
    goodput_tokens: u64,
    /// Cycles the orchestrator held each live request it deferred before
    /// dispatching it; an entry leaves when its request completes or is
    /// dropped.
    held: IdMap<RequestId, Cycle>,
    /// Completed requests' records, shared like [`Self::samples`]; filled
    /// only when `keep_records` is set ([`Self::with_records`]).
    records: Arc<Vec<RequestMetrics>>,
    keep_records: bool,
    totals: IterationBreakdown,
    iterations: u64,
    last_iteration: Option<IterationOccupancy>,
    decode_batch_sum: u64,
    prefill_cycles_on_device: Cycle,
    overlap_hidden_cycles: Cycle,
    peak_kv: f64,
    submitted: u64,
    dropped: u64,
    next_channel: u32,
    /// How KV out-of-memory is handled (victim selection + restore mode).
    preemption: Box<dyn PreemptionPolicy>,
    /// Swap-link pricing for [`RestoreMode::Swap`] restores.
    swap: SwapConfig,
    /// Preempted requests awaiting restoration, FIFO.
    parked: VecDeque<Parked>,
    /// Next admission sequence number (the LIFO victim axis).
    admit_counter: u64,
    preempt_events: u64,
    restore_events: u64,
    stall_cycles: Cycle,
    restore_overhead: Cycle,
    /// The discrete-event spine: every future-timed transition (arrival,
    /// lump-prefill completion, restore completion) is scheduled here,
    /// so an idle step jumps straight to the next event instead of
    /// scanning per-request state. It holds only future transitions: a
    /// transition at or before the clock is never scheduled (it is
    /// already actionable), and the entries the clock reaches are
    /// dropped when it moves, so its size is bounded by the live
    /// requests, not by the run's length.
    events: EventQueue<SimEvent>,
    /// `step()` invocations over the run's lifetime (diagnostic; the
    /// fleet's never-re-step regression test observes it).
    steps: u64,
    /// The event time a wait capped at its horizon stopped short of:
    /// until a submit, nothing happens before it, so the next step only
    /// moves the clock.
    wake: Option<Cycle>,
    /// KV pages the waiting queue's prompts will demand at admission
    /// (incremental mirror of the sum [`Self::kv_pressure`] reports, so
    /// dispatch snapshots stay O(1)).
    queued_pages: u64,
    /// KV pages parked (preempted) contexts will re-reserve at restore.
    parked_pages: u64,
    /// Tokens still owed by parked requests.
    parked_remaining: u64,
}

impl<B: Backend> ServingSim<B> {
    /// Builds a serving simulation over any backend with the default
    /// [`PrefillScheduler::Lump`] scheduler. The KV cache is paged across
    /// the backend's memory organization ([`Backend::mem_config`]).
    pub fn new(backend: B, model: LlmConfig, cfg: ServingConfig) -> Self {
        Self::with_scheduler(backend, model, cfg, Box::new(PrefillScheduler::Lump))
    }

    /// Builds a serving simulation driven by an explicit
    /// [`SchedulerPolicy`] (see [`crate::scheduler`] for the shipped
    /// [`PrefillScheduler`] modes and
    /// [`scheduler_from_name`](crate::scheduler::scheduler_from_name) for
    /// name-based construction).
    pub fn with_scheduler(
        backend: B,
        model: LlmConfig,
        cfg: ServingConfig,
        scheduler: Box<dyn SchedulerPolicy>,
    ) -> Self {
        let mem = backend.mem_config();
        let geo = KvGeometry::with_tp(&model, &mem, cfg.tp);
        let kv = PagedKvCache::new(&mem, geo, cfg.layers);
        // Default to whatever the backend itself prices decode with, so a
        // trace-driven backend yields a coherent (and stats-bearing) run
        // without a second knob.
        let cost_kind = backend.preferred_cost_model();
        let cost_model = backend.mha_cost_model(&model, cfg.tp, cost_kind);
        Self {
            cost_kind,
            cost_model,
            pool: RequestPool::new(cfg.max_batch),
            kv,
            prefilling: Vec::new(),
            seen: IdRuns::default(),
            now: 0,
            samples: Arc::default(),
            slo_attained: 0,
            goodput_tokens: 0,
            held: IdMap::default(),
            records: Arc::default(),
            keep_records: false,
            totals: IterationBreakdown::default(),
            iterations: 0,
            last_iteration: None,
            decode_batch_sum: 0,
            prefill_cycles_on_device: 0,
            overlap_hidden_cycles: 0,
            peak_kv: 0.0,
            submitted: 0,
            dropped: 0,
            next_channel: 0,
            preemption: Box::new(DropOnly),
            swap: SwapConfig::default(),
            parked: VecDeque::new(),
            admit_counter: 0,
            preempt_events: 0,
            restore_events: 0,
            stall_cycles: 0,
            restore_overhead: 0,
            events: EventQueue::new(),
            steps: 0,
            wake: None,
            queued_pages: 0,
            parked_pages: 0,
            parked_remaining: 0,
            backend,
            model,
            cfg,
            scheduler,
        }
    }

    /// Selects the preemption policy KV out-of-memory is handled with (see
    /// [`crate::preempt`] for the shipped policies and
    /// [`preemption_from_name`](crate::preempt::preemption_from_name) for
    /// name-based construction). Defaults to
    /// [`DropOnly`], the historical defer-or-shed behavior.
    pub fn with_preemption(mut self, policy: Box<dyn PreemptionPolicy>) -> Self {
        self.preemption = policy;
        self
    }

    /// Sets the swap-link parameters pricing
    /// [`SwapLru`](crate::preempt::SwapLru) restores (ignored by the other
    /// policies). Defaults to [`SwapConfig::default`].
    pub fn with_swap(mut self, swap: SwapConfig) -> Self {
        self.swap = swap;
        self
    }

    /// Keeps a [`RequestMetrics`] record of every completed request in
    /// [`ServingOutcome::records`]. Off by default: a run keeps only the
    /// samples its statistics are computed from, 32 bytes per completed
    /// request where a record takes 40.
    pub fn with_records(mut self) -> Self {
        self.keep_records = true;
        self
    }

    /// Preempted requests currently parked awaiting restoration.
    pub fn preempted_len(&self) -> usize {
        self.parked.len()
    }

    /// The simulated backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Selects the MHA cost model the scheduler prices PIM GEMV phases
    /// with: [`CostModelKind::Analytic`] (the Algorithm 1 closed form) or
    /// [`CostModelKind::TraceDriven`] (command-stream replay through the
    /// cycle-level DRAM model, memoized per context-length bucket, with
    /// channel statistics surfaced as [`ServingOutcome::pim_trace`]).
    ///
    /// The backend's *decode iterations* keep the pricing the backend
    /// itself was configured with (its
    /// [`preferred_cost_model`](Backend::preferred_cost_model), which is
    /// also this knob's default) — configure the backend for a fully
    /// trace-priced run. On backends without a PIM the knob is a no-op.
    pub fn with_cost_model(mut self, kind: CostModelKind) -> Self {
        self.cost_kind = kind;
        self.cost_model = self.backend.mha_cost_model(&self.model, self.cfg.tp, kind);
        self
    }

    /// Shares a [`TraceMemo`] with this replica's trace-driven cost model
    /// so replay results are pooled across simulations (the memo key
    /// includes the hardware fingerprint, so sharing one memo across a
    /// heterogeneous fleet is sound). No-op on backends without a PIM
    /// ([`Backend::attach_trace_memo`] returns `false`); when the backend
    /// accepts, the cost model is rebuilt so it prices through the shared
    /// memo.
    pub fn with_trace_memo(mut self, memo: &TraceMemo) -> Self {
        if self.backend.attach_trace_memo(memo) {
            self.cost_model = self
                .backend
                .mha_cost_model(&self.model, self.cfg.tp, self.cost_kind);
        }
        self
    }

    /// Pre-populates the cost model's replay memo for every context-length
    /// bucket intersecting the given `(lo, hi)` sequence-length spans,
    /// replaying cold buckets on up to `jobs` threads (see
    /// [`MhaCostModel::warm_replay`]). Returns the number of buckets
    /// replayed; 0 when the cost model has no memo (analytic pricing).
    pub fn warm_cost_model(&self, spans: &[(u64, u64)], jobs: usize) -> u64 {
        self.cost_model
            .as_ref()
            .map_or(0, |m| m.warm_replay(spans, jobs))
    }

    /// The MHA cost-model kind in effect.
    pub fn cost_model_kind(&self) -> CostModelKind {
        self.cost_kind
    }

    /// The run parameters.
    pub fn config(&self) -> &ServingConfig {
        &self.cfg
    }

    /// Current simulated time in cycles.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The latest iteration's occupancy (`None` before the first): read
    /// it after each [`StepEvent::Iteration`] to follow a run iteration by
    /// iteration.
    pub fn last_iteration(&self) -> Option<&IterationOccupancy> {
        self.last_iteration.as_ref()
    }

    /// How many times [`Self::step`] has been called over the run's
    /// lifetime (including `Waited` clock jumps and terminal `Finished`
    /// probes).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// When a wait capped at a dispatch horizon stopped short of the next
    /// event, that event's time: nothing happens on the replica before it
    /// unless a request is submitted. `None` otherwise.
    pub(crate) fn wake(&self) -> Option<Cycle> {
        self.wake
    }

    /// Whether the replica's event stream has drained: nothing waiting,
    /// running, or parked. An idle simulation's [`Self::step`] returns
    /// [`StepEvent::Finished`] without mutating any state, so callers
    /// (the fleet's event-driven merge) can skip stepping it entirely.
    pub fn is_idle(&self) -> bool {
        let idle = self.pool.waiting_len() == 0
            && self.pool.running().is_empty()
            && self.parked.is_empty();
        debug_assert!(
            !idle || self.prefilling.is_empty(),
            "an idle replica still holds {} prefilling requests",
            self.prefilling.len()
        );
        idle
    }

    /// Requests waiting for admission.
    pub fn waiting_len(&self) -> usize {
        self.pool.waiting_len()
    }

    /// Requests in the running batch (decoding or prefilling).
    pub fn running_len(&self) -> usize {
        self.pool.running().len()
    }

    /// Completed requests so far.
    pub fn completed(&self) -> u64 {
        self.pool.completed()
    }

    /// Tokens still to be generated across waiting, running, and parked
    /// (preempted) requests — parked work is still owed, so it must stay
    /// visible to dispatchers.
    pub fn outstanding_tokens(&self) -> u64 {
        self.pool.outstanding_tokens() + self.parked_remaining
    }

    /// Current KV-cache pool utilization, `[0, 1]`.
    pub fn kv_utilization(&self) -> f64 {
        self.kv.utilization()
    }

    /// KV *pressure*: pages already reserved, plus the pages the queued
    /// prompts will demand at admission, plus the pages parked
    /// (preempted) contexts will re-reserve at restore, over the pool
    /// size. Unlike [`Self::kv_utilization`] this reacts immediately to
    /// submissions and survives evictions — a replica thrashing on
    /// preemption holds few pages but owes many, and a capacity-aware
    /// dispatcher must see that; it can exceed 1 when the backlog
    /// oversubscribes the cache.
    pub fn kv_pressure(&self) -> f64 {
        let total = self.kv.total_pages();
        if total == 0 {
            return 0.0;
        }
        debug_assert_eq!(
            self.queued_pages,
            self.pool
                .waiting()
                .map(|r| self.kv.pages_for(r.input_len as u64))
                .sum::<u64>(),
            "queued-page mirror drifted from the waiting queue"
        );
        debug_assert_eq!(
            self.parked_pages,
            self.parked
                .iter()
                .map(|p| self.kv.pages_for(p.req.seq_len() as u64))
                .sum::<u64>(),
            "parked-page mirror drifted from the parked set"
        );
        (self.kv.used_pages() + self.queued_pages + self.parked_pages) as f64 / total as f64
    }

    /// Submits one request (prompt `input_len`, target `output_len`,
    /// arriving at `arrival`).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DuplicateRequest`] when `id` was already
    /// submitted to this simulation (a duplicate would otherwise poison
    /// admission and head-of-line block the whole queue), and
    /// [`SimError::InvalidShape`] for a zero `output_len` (a request that
    /// generates nothing cannot pass through the decode loop).
    pub fn submit(
        &mut self,
        id: u32,
        input_len: u32,
        output_len: u32,
        arrival: Cycle,
    ) -> Result<(), SimError> {
        let id = RequestId::new(id);
        if output_len == 0 {
            return Err(SimError::InvalidShape(format!(
                "request {id} has zero output_len"
            )));
        }
        if !self.seen.insert(id) {
            return Err(SimError::DuplicateRequest(id));
        }
        self.enqueue(Request::new(id, input_len, output_len, arrival));
        Ok(())
    }

    /// The ids [`Self::submit`] accepted.
    pub(crate) fn submitted_ids(&self) -> &IdRuns {
        &self.seen
    }

    /// Queues a request an orchestrator dispatched for `tenant` after
    /// holding it `held` cycles past its submitted arrival. The
    /// orchestrator has already rejected fleet-wide duplicates and zero
    /// output lengths, so the id is not recorded here.
    pub(crate) fn dispatch(&mut self, req: FleetRequest, tenant: u32, held: Cycle) {
        debug_assert!(
            req.output_len > 0,
            "the orchestrator admits no empty request"
        );
        let mut r = Request::new(
            RequestId::new(req.id),
            req.input_len,
            req.output_len,
            req.arrival,
        );
        r.tenant = tenant;
        if held > 0 {
            self.held.insert(r.id, held);
        }
        self.enqueue(r);
    }

    /// Queues `req` at its arrival.
    fn enqueue(&mut self, req: Request) {
        self.events
            .push_after(self.now, req.arrival, SimEvent::Arrival(req.id));
        self.queued_pages += self.kv.pages_for(u64::from(req.input_len));
        self.submitted += 1;
        self.pool.submit(req);
        self.wake = None;
    }

    /// The channel with the most free pages (ties broken toward the
    /// lowest index) — where restores go, since a parked context may no
    /// longer fit its original home.
    fn most_free_channel(&self) -> ChannelId {
        (0..self.kv.channels())
            .map(ChannelId::new)
            .max_by_key(|&c| (self.kv.free_pages(c), std::cmp::Reverse(c.index())))
            .expect("memory configs have at least one channel")
    }

    /// Decode-resident victim candidates on `channel`: running requests
    /// holding pages there whose prompt is fully encoded. Requests still
    /// prefilling are never candidates — evicting one would forfeit
    /// charged prefill work for no reclaimable decode progress.
    fn victim_candidates(&self, channel: ChannelId) -> Vec<VictimCandidate> {
        self.pool
            .running()
            .iter()
            .zip(self.pool.records())
            .filter_map(|(r, rec)| {
                let alloc = rec.alloc();
                if alloc.channel() != channel || !rec.decode_ready(self.now) {
                    return None;
                }
                Some(VictimCandidate {
                    id: r.id,
                    pages: alloc.pages(),
                    seq_len: alloc.seq_len(),
                    admitted_seq: rec.admit_seq,
                    last_decoded: rec.last_decoded,
                })
            })
            .collect()
    }

    /// Evicts `id`'s KV pages and parks the request for later
    /// restoration. Its record keeps the first-token time, admission
    /// sequence and preemption count, and drops everything tied to the
    /// eviction: home channel, prefill gate, LRU stamp and chunked-prefill
    /// progress (so schedulers never plan — or hide — prefill work for a
    /// request they no longer hold).
    fn park(&mut self, id: RequestId) -> Result<(), SimError> {
        let (req, mut rec) = self
            .pool
            .preempt_running(id)
            .ok_or(SimError::UnknownRequest(id))?;
        let alloc = rec.kv.take().expect("running requests hold KV pages");
        let receipt = self.kv.preempt(alloc);
        if rec.prefilling {
            self.prefilling.retain(|p| p.id != id);
        }
        rec.ready_at = 0;
        rec.prefilling = false;
        rec.last_decoded = 0;
        rec.preemptions += 1;
        self.preempt_events += 1;
        self.parked_pages += self.kv.pages_for(req.seq_len() as u64);
        self.parked_remaining += req.remaining() as u64;
        self.parked.push_back(Parked {
            req,
            rec,
            at: self.now,
            bytes: receipt.bytes,
        });
        Ok(())
    }

    /// Drops a running request that cannot continue (its context cannot
    /// grow a token and the policy does not park), releasing its pages.
    fn shed_running(&mut self, id: RequestId) -> Result<(), SimError> {
        let (_, rec) = self
            .pool
            .preempt_running(id)
            .ok_or(SimError::UnknownRequest(id))?;
        let InFlight { kv, prefilling, .. } = rec;
        self.kv.release(kv.expect("running requests hold KV pages"));
        if prefilling {
            self.prefilling.retain(|p| p.id != id);
        }
        self.count_drop(id);
        Ok(())
    }

    /// Counts request `id` dropped.
    fn count_drop(&mut self, id: RequestId) {
        self.dropped += 1;
        self.held.remove(&id);
    }

    /// Restores parked requests FIFO while pages and batch slots allow,
    /// charging each restore per the policy's [`RestoreMode`]: recompute
    /// re-runs the scheduler's admission charge over the grown context
    /// (a lump delay, or fresh on-device chunks under the chunked
    /// schedulers); swap delays the request by the link transfer of its
    /// saved bytes. A parked head whose grown context can no longer fit
    /// even an empty channel is dropped (`Some(Dropped)`).
    fn restore_parked(&mut self) -> Result<Option<StepEvent>, SimError> {
        while let Some((id, seq, remaining)) = self
            .parked
            .front()
            .map(|p| (p.req.id, p.req.seq_len() as u64, p.req.remaining() as u64))
        {
            let pages = self.kv.pages_for(seq);
            if pages > self.kv.pages_per_channel() {
                self.parked.pop_front().expect("peeked");
                self.parked_pages -= pages;
                self.parked_remaining -= remaining;
                self.count_drop(id);
                return Ok(Some(StepEvent::Dropped(id)));
            }
            if self.pool.running().len() >= self.cfg.max_batch {
                break;
            }
            let ch = self.most_free_channel();
            if pages > self.kv.free_pages(ch) {
                break; // head-of-line: wait for completions to free pages
            }
            let Parked {
                req,
                mut rec,
                at,
                bytes,
            } = self.parked.pop_front().expect("peeked");
            self.parked_pages -= pages;
            self.parked_remaining -= remaining;
            rec.kv = Some(self.kv.restore(ch, seq)?);
            self.stall_cycles += self.now.saturating_sub(at);
            self.restore_events += 1;
            let mode = self
                .preemption
                .restore_mode()
                .expect("parked requests only exist under preempting policies");
            let prompt = seq.max(1);
            let charge = match mode {
                RestoreMode::Recompute => {
                    let (backend, model) = (&self.backend, &self.model);
                    let (tp, layers) = (self.cfg.tp, self.cfg.layers);
                    let charge = self
                        .scheduler
                        .admission_charge(backend, model, tp, layers, prompt)?;
                    self.restore_overhead += match charge {
                        PrefillCharge::Delay(d) => d,
                        PrefillCharge::Chunked => {
                            backend.prefill_cycles(model, tp, layers, &[prompt])?
                        }
                    };
                    charge
                }
                RestoreMode::Swap => {
                    let d = self.swap.transfer_cycles(bytes);
                    self.restore_overhead += d;
                    PrefillCharge::Delay(d)
                }
            };
            self.prefilling.extend(rec.gate(
                id,
                charge,
                prompt,
                self.now,
                SimEvent::RestoreComplete,
                &mut self.events,
            ));
            self.pool
                .resume((req, rec))
                .expect("batch cap was checked before restoring");
        }
        Ok(None)
    }

    /// Advances the simulation by one event: admits arrivals, then either
    /// executes one decode iteration for the decode-ready sub-batch,
    /// jumps the clock to the next arrival/prefill completion, drops a
    /// permanently unadmittable request, or reports that the run is
    /// finished.
    ///
    /// # Errors
    ///
    /// Propagates backend pricing errors; KV out-of-memory at admission is
    /// handled by deferring (or, when hopeless, dropping) the request, not
    /// by failing the run.
    pub fn step(&mut self) -> Result<StepEvent, SimError> {
        self.step_within(Cycle::MAX)
    }

    /// [`Self::step`] with a horizon: a wait stops at `horizon` instead of
    /// jumping past it to the next event. A fleet replica steps this way
    /// to each dispatch barrier, since it cannot see the arrivals the
    /// dispatcher still holds; the time it stopped short of is kept (see
    /// [`Self::wake`]) until a submit, and until then a step short of it
    /// only moves the clock.
    // Out of line, so `advance` is inlined at one call site: inlining this
    // into both `step` and the fleet's `advance_to` cost ~8% of
    // `fleet-jsq-256` host throughput on a 2-core VM.
    #[inline(never)]
    pub(crate) fn step_within(&mut self, horizon: Cycle) -> Result<StepEvent, SimError> {
        if let Some(wake) = self.wake {
            debug_assert_eq!(
                self.events.peek().map(|(at, _)| at),
                Some(wake),
                "a recorded wake must be the next event"
            );
            if wake > horizon {
                self.steps += 1;
                self.now = self.now.max(horizon);
                return Ok(StepEvent::Waited);
            }
        }
        let before = self.now;
        let event = self.advance(horizon)?;
        debug_assert!(
            event != StepEvent::Waited || self.now <= horizon.max(before),
            "a wait moved the clock from {before} past its horizon {horizon} to {}",
            self.now
        );
        debug_assert!(
            self.kv_pages_match_the_batch(),
            "KV page totals drifted from the running records' allocations"
        );
        Ok(event)
    }

    /// Waits for the event at `next`, stopping at `horizon` (and keeping
    /// `next` as the wake) when it lies beyond. The clock never moves back;
    /// reaching `next` drops the events due at it.
    fn wait_until(&mut self, next: Cycle, horizon: Cycle) {
        if next > horizon {
            self.now = self.now.max(horizon);
            self.wake = Some(next);
        } else {
            self.now = next;
            self.events.discard_through(next);
            self.wake = None;
        }
    }

    /// Whether every channel's used KV pages equal the pages of the
    /// running records' allocations homed there (parked and waiting
    /// requests hold none): the KV-page invariant, one walk over the batch
    /// per channel.
    fn kv_pages_match_the_batch(&self) -> bool {
        (0..self.kv.channels()).map(ChannelId::new).all(|ch| {
            let held: u64 = self
                .pool
                .records()
                .iter()
                .map(InFlight::alloc)
                .filter(|a| a.channel() == ch)
                .map(KvAlloc::pages)
                .sum();
            held + self.kv.free_pages(ch) == self.kv.pages_per_channel()
        })
    }

    /// [`Self::step_within`]'s body.
    fn advance(&mut self, horizon: Cycle) -> Result<StepEvent, SimError> {
        self.steps += 1;
        if self.cfg.target_completions > 0 && self.pool.completed() >= self.cfg.target_completions {
            return Ok(StepEvent::Finished);
        }

        // Restore parked (preempted) requests first: already-started work
        // outranks new admissions, and restores only proceed when pages
        // and batch slots are genuinely free, so they never preempt.
        if let Some(event) = self.restore_parked()? {
            return Ok(event);
        }

        // Iteration boundary: admit while capacity allows. Requests are
        // homed on channels round-robin at admission (their KV pages live
        // there for their lifetime) and charged their prompt the way the
        // scheduler directs: a lump delay (they become decode-ready
        // `prefill_cycles` after admission) or chunked on-device encoding.
        // Under a preempting policy, a queue head blocked by out-of-memory
        // evicts victims and admission retries; the loop exits when the
        // head is unblocked, hopeless, or no victim selection helps.
        loop {
            let kv = &mut self.kv;
            let next_channel = &mut self.next_channel;
            let channels = kv.channels();
            let prefilling = &mut self.prefilling;
            let admit_counter = &mut self.admit_counter;
            let events = &mut self.events;
            let queued_pages = &mut self.queued_pages;
            let scheduler = &self.scheduler;
            let backend: &dyn Backend = &self.backend;
            let model = &self.model;
            let (tp, layers) = (self.cfg.tp, self.cfg.layers);
            let now = self.now;
            let mut prefill_err: Option<SimError> = None;
            self.pool.admit(now, |req| {
                let ch = ChannelId::new(*next_channel % channels);
                let alloc = kv.admit(ch, req.input_len as u64).ok()?;
                let prompt = req.input_len.max(1) as u64;
                match scheduler.admission_charge(backend, model, tp, layers, prompt) {
                    Ok(charge) => {
                        *next_channel += 1;
                        let mut rec = InFlight::admitted(alloc, *admit_counter);
                        *admit_counter += 1;
                        prefilling.extend(rec.gate(
                            req.id,
                            charge,
                            prompt,
                            now,
                            SimEvent::IterationComplete,
                            events,
                        ));
                        *queued_pages -= kv.pages_for(req.input_len as u64);
                        Some(rec)
                    }
                    Err(e) => {
                        // Roll the reservation back and fail the run: a
                        // backend that cannot price prefill is a
                        // configuration error, not a capacity one.
                        kv.release(alloc);
                        prefill_err = Some(e.into());
                        None
                    }
                }
            });
            if let Some(e) = prefill_err {
                return Err(e);
            }

            // Admission-triggered preemption: only when the head is
            // actually blocked by out-of-memory — not by the batch cap or
            // a future arrival — and victims can cover the shortfall.
            if self.preemption.restore_mode().is_none()
                || self.pool.running().len() >= self.cfg.max_batch
            {
                break;
            }
            let Some((head_arrival, head_input)) = self
                .pool
                .waiting()
                .next()
                .map(|r| (r.arrival, r.input_len as u64))
            else {
                break;
            };
            if head_arrival > self.now {
                break;
            }
            let ch = ChannelId::new(self.next_channel % self.kv.channels());
            let pages = self.kv.pages_for(head_input);
            let free = self.kv.free_pages(ch);
            if pages > self.kv.pages_per_channel() || pages <= free {
                // Hopeless heads take the historical drop path below; a
                // fitting head means admission stopped for another reason.
                break;
            }
            let victims = self
                .preemption
                .select_victims(&self.victim_candidates(ch), pages - free);
            if victims.is_empty() {
                break;
            }
            // Admission OOM is an occupancy high-water mark too: sample
            // before the evictions release pages.
            self.peak_kv = self.peak_kv.max(self.kv.utilization());
            for v in victims {
                self.park(v)?;
            }
            // Retry admission against the freed pages.
        }

        // The decode-ready sub-batch: admitted requests whose prompt is
        // fully encoded (lump delay elapsed and no chunk outstanding), with
        // their home channels. Requests still encoding their prompt
        // on-device are already queued FIFO in `self.prefilling`, the
        // chunked schedulers' work queue.
        let mut scratch = Lent::take(&READY_SCRATCH);
        let ReadyList { ready, homes } = &mut *scratch;
        ready.clear();
        homes.clear();
        for (r, rec) in self.pool.running().iter().zip(self.pool.records()) {
            if rec.decode_ready(self.now) {
                ready.push((r.id, r.seq_len() as u64));
                homes.push(rec.alloc().channel());
            }
        }

        if ready.is_empty() && self.prefilling.is_empty() {
            // The event queue holds exactly the future arrivals,
            // lump-prefill completions and restore completions: nothing
            // at or before `now` is ever scheduled, and the clock drops
            // the entries it reaches. Every entry corresponds to live
            // state (requests are only dropped, shed, or preempted once
            // they are due), so the queue head IS the next transition —
            // no per-request scan.
            debug_assert!(
                self.events.peek().is_none_or(|(at, _)| at > self.now),
                "an event at or before the clock is still queued"
            );
            let next_event = self.events.peek().map(|(at, _)| at);
            if !self.pool.running().is_empty() {
                // Everything admitted is still prefilling: jump to the
                // earliest prefill completion — or to the next arrival if
                // it lands first, so newcomers are admitted (and start
                // their own prefill) while earlier prompts are encoding.
                let next =
                    next_event.expect("non-ready running request must have a future ready time");
                self.wait_until(next, horizon);
                return Ok(StepEvent::Waited);
            }
            if self.pool.waiting_len() == 0 {
                if self.parked.is_empty() {
                    debug_assert!(self.is_idle());
                    return Ok(StepEvent::Finished);
                }
                // Unreachable in practice: with nothing running the cache
                // is empty, so restore_parked either restored or dropped
                // the parked head at the top of this step. Fail loudly
                // rather than spin.
                return Err(SimError::Scheduling(
                    "parked requests stranded with an idle, empty KV cache".into(),
                ));
            }
            // Nothing is running, so the KV cache is empty. If the head
            // of the waiting queue has arrived, admission just failed
            // against that empty cache — it can never run. Drop it now
            // (counted, not silently lost) so it doesn't head-of-line
            // block admittable requests until the arrival horizon drains.
            let head_arrival = self
                .pool
                .waiting()
                .next()
                .map(|r| r.arrival)
                .expect("non-empty waiting queue");
            if head_arrival <= self.now {
                // A waiting request has no in-flight record to clear.
                let req = self
                    .pool
                    .drop_head_waiting()
                    .expect("non-empty waiting queue");
                self.queued_pages -= self.kv.pages_for(req.input_len as u64);
                self.count_drop(req.id);
                return Ok(StepEvent::Dropped(req.id));
            }
            // The head hasn't arrived yet: jump to the next arrival
            // (with nothing running, the only future events are
            // arrivals).
            let next = next_event.expect("future waiting head implies a future arrival");
            self.wait_until(next, horizon);
            return Ok(StepEvent::Waited);
        }

        // One iteration, planned and priced by the scheduler policy: the
        // decode sub-batch plus (under chunked policies) prefill chunks,
        // possibly overlapped NPU/PIM-style.
        let demand = IterationDemand {
            decode: ready,
            prefill: &self.prefilling,
            homes,
            cost_model: self.cost_model.as_deref(),
        };
        let plan = {
            let scheduler = &mut self.scheduler;
            let backend: &dyn Backend = &self.backend;
            scheduler
                .plan(backend, &self.model, self.cfg.tp, self.cfg.layers, &demand)
                .map_err(SimError::from)?
        };
        debug_assert_eq!(
            plan.breakdown.total_cycles,
            plan.decode_cycles + plan.prefill_cycles - plan.hidden_cycles,
            "scheduler plan violated its cycle-split invariant"
        );
        self.last_iteration = Some(IterationOccupancy {
            start: self.now,
            cycles: plan.breakdown.total_cycles,
            decode_requests: ready.len(),
            prefill_tokens: plan.prefill.iter().map(|c| c.tokens).sum(),
            decode_cycles: plan.decode_cycles,
            prefill_cycles: plan.prefill_cycles,
            hidden_cycles: plan.hidden_cycles,
        });
        self.now += plan.breakdown.total_cycles;
        self.events.discard_through(self.now);
        self.totals.merge(&plan.breakdown);
        self.iterations += 1;
        self.decode_batch_sum += ready.len() as u64;
        self.prefill_cycles_on_device += plan.prefill_cycles;
        self.overlap_hidden_cycles += plan.hidden_cycles;

        // Chunked-prefill progress: fully encoded prompts leave the
        // prefill queue and join decode at the next boundary.
        if !plan.prefill.is_empty() {
            for chunk in &plan.prefill {
                if let Some(p) = self.prefilling.iter_mut().find(|p| p.id == chunk.id) {
                    p.done = (p.done + chunk.tokens).min(p.total);
                    p.charged = chunk.charged_total;
                }
            }
            let pool = &mut self.pool;
            self.prefilling.retain(|p| {
                let encoded = p.done >= p.total;
                if encoded {
                    let pos = pool
                        .running()
                        .iter()
                        .position(|r| r.id == p.id)
                        .expect("prefilling requests are running");
                    pool.records_mut()[pos].prefilling = false;
                }
                !encoded
            });
        }

        // Token growth, then the KV high-water mark (after growth, before
        // releases), then completion handling. Out-of-memory on growth is
        // the preemption policy's call: drop-only sheds the request that
        // cannot grow; preempting policies evict victims (possibly the
        // grower itself) and park them for restoration.
        //
        // A request that grew is stamped with this iteration; the
        // completion pass below advances exactly the still-running
        // requests carrying the stamp (a victim parked after its append
        // re-generates that token after restoration).
        //
        // Ready ids are in running order, so each one is found at or
        // after the previous one's position. A park or shed removes
        // entries and shifts the batch, so the search restarts from the
        // front after one; an id no longer found was shed or parked as a
        // victim earlier in this loop.
        let iteration = self.iterations;
        let mut cursor = 0;
        for &(id, _) in ready.iter() {
            let Some(pos) = self.pool.running()[cursor..]
                .iter()
                .position(|r| r.id == id)
                .map(|i| cursor + i)
            else {
                continue;
            };
            cursor = pos;
            let rec = &mut self.pool.records_mut()[pos];
            match self.kv.append_token(rec.alloc_mut()) {
                Ok(_) => rec.grew_in = iteration,
                Err(SimError::OutOfMemory {
                    channel,
                    requested_pages,
                    free_pages,
                }) => {
                    // The OOM instant is the occupancy high-water mark:
                    // sample before any shed/park below releases pages.
                    self.peak_kv = self.peak_kv.max(self.kv.utilization());
                    if self.kv.pages_for(rec.alloc().seq_len() + 1) > self.kv.pages_per_channel() {
                        // The context has *saturated* its channel: not even
                        // an empty channel could hold the next token, so no
                        // eviction helps. Growth pins at channel capacity
                        // (the historical count-model behavior, which the
                        // golden traces rely on) and the request finishes
                        // on schedule with its pages at their last size.
                        rec.grew_in = iteration;
                        continue;
                    }
                    // The channel is merely *crowded*: the context would
                    // fit an empty channel, but its neighbors hold the
                    // pages. This is the preemption decision point.
                    cursor = 0;
                    if self.preemption.restore_mode().is_none() {
                        self.shed_running(id)?;
                        continue;
                    }
                    let needed = requested_pages.saturating_sub(free_pages);
                    let victims = self
                        .preemption
                        .select_victims(&self.victim_candidates(channel), needed);
                    if victims.is_empty() {
                        // No selection covers the shortfall: park the
                        // grower itself until pages free up.
                        self.park(id)?;
                        continue;
                    }
                    let self_evicted = victims.contains(&id);
                    for v in victims {
                        self.park(v)?;
                    }
                    if !self_evicted {
                        let pos = self
                            .pool
                            .running()
                            .iter()
                            .position(|r| r.id == id)
                            .expect("a grower that was not evicted is running");
                        let rec = &mut self.pool.records_mut()[pos];
                        match self.kv.append_token(rec.alloc_mut()) {
                            Ok(_) => rec.grew_in = iteration,
                            Err(SimError::OutOfMemory { .. }) => self.park(id)?,
                            Err(e) => return Err(e),
                        }
                    }
                }
                Err(e) => return Err(e),
            }
        }
        drop(scratch);
        self.peak_kv = self.peak_kv.max(self.kv.utilization());

        // Completion: each running record is read in place, and each
        // retired request hands back its record and KV allocation.
        let now = self.now;
        let retired = self.pool.complete_iteration_where(|_, rec| {
            let grew = rec.grew_in == iteration;
            if grew {
                rec.first_token.get_or_insert(now);
                rec.last_decoded = now;
            }
            grew
        });
        for (done, rec) in retired {
            self.kv
                .release(rec.kv.expect("running requests hold KV pages"));
            let first = rec
                .first_token
                .expect("completed request produced a first token");
            let ttft = first.saturating_sub(done.arrival);
            let latency = now.saturating_sub(done.arrival);
            let tokens = done.output_len;
            let tpot = tpot(ttft, latency, tokens);
            if (self.cfg.slo.as_ref()).is_none_or(|slo| ttft <= slo.ttft && tpot <= slo.tpot) {
                self.slo_attained += 1;
                self.goodput_tokens += u64::from(tokens);
            }
            let held = self.held.remove(&done.id).unwrap_or(0);
            let s = Arc::make_mut(&mut self.samples);
            if held > 0 {
                s.held.push((s.latencies.len(), held));
            }
            let tenant = done.tenant;
            s.tenants.push(TenantSample { tenant, tokens });
            s.latencies.push(latency);
            s.ttfts.push(ttft);
            s.tpots.push(tpot);
            if self.keep_records {
                Arc::make_mut(&mut self.records).push(RequestMetrics {
                    id: done.id,
                    arrival: done.arrival,
                    ttft,
                    latency,
                    tokens,
                    preemptions: rec.preemptions,
                    tenant: done.tenant,
                });
            }
        }
        Ok(StepEvent::Iteration)
    }

    /// Snapshot of the run's statistics so far (final once [`Self::step`]
    /// reports [`StepEvent::Finished`], which is what [`Self::run`]
    /// returns).
    pub fn outcome(&self) -> ServingOutcome {
        ServingOutcome {
            total_cycles: self.now,
            submitted: self.submitted,
            completed: self.pool.completed(),
            dropped: self.dropped,
            preemptions: self.preempt_events,
            restores: self.restore_events,
            preemption_stall_cycles: self.stall_cycles,
            restore_overhead_cycles: self.restore_overhead,
            tokens: self.pool.tokens_generated(),
            iterations: self.iterations,
            samples: Arc::clone(&self.samples),
            records: Arc::clone(&self.records),
            totals: self.totals.clone(),
            peak_kv_utilization: self.peak_kv,
            slo_attained: self.slo_attained,
            goodput_tokens: self.goodput_tokens,
            decode_batch_sum: self.decode_batch_sum,
            prefill_cycles_on_device: self.prefill_cycles_on_device,
            overlap_hidden_cycles: self.overlap_hidden_cycles,
            pim_trace: self.cost_model.as_ref().and_then(|m| m.trace_snapshot()),
        }
    }

    /// Runs until the completion target (or full drain) and reports.
    ///
    /// # Errors
    ///
    /// Propagates device-model errors; KV out-of-memory at admission is
    /// handled by deferring (or dropping) the request, not by failing the
    /// run.
    pub fn run(&mut self) -> Result<ServingOutcome, SimError> {
        while self.step()? != StepEvent::Finished {}
        Ok(self.outcome())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceMode;
    use crate::testsupport::table2_device;
    use neupims_pim::calibrate;
    use neupims_types::NeuPimsConfig;

    fn cfg(max_batch: usize) -> ServingConfig {
        ServingConfig {
            max_batch,
            tp: 4,
            layers: 32,
            target_completions: 0,
            slo: None,
        }
    }

    /// A simulation that keeps its records, so tests can find a request
    /// by id.
    fn sim(mode: DeviceMode, max_batch: usize) -> ServingSim {
        ServingSim::new(table2_device(mode), LlmConfig::gpt3_7b(), cfg(max_batch)).with_records()
    }

    /// The exit-path invariant: a drained replica holds no per-request
    /// state — no in-flight record, no prefill progress, no KV pages.
    fn assert_drained<B: Backend>(s: &ServingSim<B>) {
        assert!(s.is_idle());
        assert!(s.pool.records().is_empty());
        assert!(s.prefilling.is_empty());
        assert_eq!(s.kv.used_pages(), 0);
    }

    #[test]
    fn drains_all_requests() {
        let mut s = sim(DeviceMode::neupims(), 16);
        for i in 0..32 {
            s.submit(i, 64, 8, 0).unwrap();
        }
        let out = s.run().unwrap();
        assert_eq!(out.completed, 32);
        assert_eq!(out.submitted, 32);
        assert_eq!(out.dropped, 0);
        assert_eq!(out.tokens, 32 * 8);
        assert!(out.iterations >= 8 * 2, "two admission waves of 16");
        assert!(out.mean_latency() > 0.0);
        assert!(out.tokens_per_sec() > 0.0);
        assert!(out.peak_kv_utilization > 0.0);
        assert_drained(&s);
    }

    #[test]
    fn completion_drains_chunked_prefill_state() {
        // Completion exit under a chunked scheduler: the prompt queue and
        // the records both drain.
        let mut s = ServingSim::with_scheduler(
            table2_device(DeviceMode::neupims()),
            LlmConfig::gpt3_7b(),
            cfg(4),
            crate::scheduler::scheduler_from_name("chunked", 64).unwrap(),
        );
        for i in 0..10 {
            s.submit(i, 100 + 30 * i, 3, u64::from(i) * 100_000)
                .unwrap();
        }
        let out = s.run().unwrap();
        assert_eq!(out.completed, 10);
        assert_drained(&s);
    }

    #[test]
    fn a_busy_replica_queues_only_future_events() {
        // Fed arrivals while busy, some already due and some ahead of
        // the clock, a replica holds no event at or before its clock
        // after any step, and at most one per live request.
        let mut s = sim(DeviceMode::neupims(), 4);
        for id in 0..4 {
            s.submit(id, 64, 6, 0).unwrap();
        }
        let mut next = 4;
        let mut steps = 0u32;
        loop {
            if next < 40 && steps.is_multiple_of(3) {
                let now = s.now();
                s.submit(next, 64 + 7 * next, 6, now.saturating_sub(1))
                    .unwrap();
                s.submit(next + 1, 64, 6, now + 50_000).unwrap();
                next += 2;
            }
            let event = s.step().unwrap();
            steps += 1;
            assert!(
                s.events.peek().is_none_or(|(at, _)| at > s.now),
                "step {steps}: an event at or before the clock {} is queued",
                s.now
            );
            assert!(s.events.len() <= s.waiting_len() + s.running_len());
            if event == StepEvent::Finished && next >= 40 {
                break;
            }
        }
        assert_eq!(s.completed(), 40);
        assert_drained(&s);
        assert!(s.events.is_empty());
    }

    #[test]
    fn later_arrivals_wait() {
        let mut s = sim(DeviceMode::neupims(), 8);
        s.submit(0, 64, 4, 0).unwrap();
        s.submit(1, 64, 4, 1_000_000_000).unwrap();
        let out = s.run().unwrap();
        assert_eq!(out.completed, 2);
        // The run must extend past the second arrival.
        assert!(out.total_cycles >= 1_000_000_000);
    }

    #[test]
    fn neupims_serves_faster_than_naive() {
        let submit_all = |s: &mut ServingSim| {
            for i in 0..64 {
                s.submit(i, 200, 16, 0).unwrap();
            }
        };
        let mut a = sim(DeviceMode::neupims(), 64);
        submit_all(&mut a);
        let fast = a.run().unwrap();
        let mut b = sim(DeviceMode::NaiveNpuPim, 64);
        submit_all(&mut b);
        let slow = b.run().unwrap();
        assert!(
            fast.total_cycles < slow.total_cycles,
            "neupims {} vs naive {}",
            fast.total_cycles,
            slow.total_cycles
        );
    }

    #[test]
    fn latency_percentiles_are_ordered() {
        let mut s = sim(DeviceMode::neupims(), 8);
        // Staggered arrivals with mixed lengths give spread-out latencies.
        for i in 0..24u32 {
            s.submit(i, 32 + i * 8, 4 + i % 9, (i as u64) * 200_000)
                .unwrap();
        }
        let out = s.run().unwrap();
        assert_eq!(out.records.len(), 24);
        let p50 = out.latency_percentile(50.0);
        let p95 = out.latency_percentile(95.0);
        let p99 = out.latency_percentile(99.0);
        assert!(p50 > 0);
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        // The percentiles over the records are those of the sorted samples.
        let mut latencies: Vec<Cycle> = out.records.iter().map(|r| r.latency).collect();
        latencies.sort_unstable();
        let mut ttfts: Vec<Cycle> = out.records.iter().map(|r| r.ttft).collect();
        ttfts.sort_unstable();
        let mut tpots: Vec<f64> = out.records.iter().map(RequestMetrics::tpot).collect();
        tpots.sort_by(f64::total_cmp);
        for p in [0.0, 10.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(out.latency_percentile(p), nearest_rank(&latencies, p));
            assert_eq!(out.ttft_percentile(p), nearest_rank(&ttfts, p));
            assert_eq!(
                out.tpot_percentile(p).to_bits(),
                nearest_rank(&tpots, p).to_bits()
            );
        }
        // Mean sits between min and max.
        assert!(out.mean_latency() >= latencies[0] as f64);
        assert!(out.mean_latency() <= *latencies.last().unwrap() as f64);
        // Per-request invariant: first token cannot come after completion.
        for r in out.records.iter() {
            assert!(r.ttft <= r.latency, "{r:?}");
        }
    }

    #[test]
    fn records_are_kept_only_on_request() {
        let run = |mut s: ServingSim| {
            for i in 0..6 {
                s.submit(i, 64, 3 + i, u64::from(i) * 100_000).unwrap();
            }
            s.run().unwrap()
        };
        let device = table2_device(DeviceMode::neupims());
        let bare = run(ServingSim::new(device, LlmConfig::gpt3_7b(), cfg(8)));
        let recorded = run(sim(DeviceMode::neupims(), 8));
        assert!(bare.records.is_empty());
        assert_eq!(recorded.records.len(), 6);
        // The records change nothing else, and the samples are theirs.
        let samples = &recorded.samples;
        for (i, r) in recorded.records.iter().enumerate() {
            assert_eq!(
                (samples.latencies[i], samples.ttfts[i]),
                (r.latency, r.ttft)
            );
            assert_eq!(samples.tpots[i].to_bits(), r.tpot().to_bits());
        }
        let unrecorded = ServingOutcome {
            records: Arc::default(),
            ..recorded
        };
        assert_eq!(unrecorded, bare);
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn bad_percentile_panics() {
        let out = super::ServingOutcome::default();
        out.latency_percentile(123.0);
    }

    #[test]
    fn iteration_level_scheduling_admits_mid_run() {
        // A short request finishes and a waiting one takes its slot without
        // waiting for the whole batch to drain.
        let mut s = sim(DeviceMode::neupims(), 2);
        s.submit(0, 32, 2, 0).unwrap();
        s.submit(1, 32, 20, 0).unwrap();
        s.submit(2, 32, 2, 0).unwrap(); // waits for request 0's slot
        let out = s.run().unwrap();
        assert_eq!(out.completed, 3);
        // If admission only happened at drain, iterations would be ~22+2;
        // iteration-level admission keeps it at ~20 (request 2 overlaps
        // request 1's long tail even after its prefill delay).
        assert!(out.iterations <= 21, "iterations {}", out.iterations);
    }

    #[test]
    fn zero_output_len_is_rejected_at_submit() {
        // A request that generates nothing would be "finished" from birth
        // and panic the decode loop's advance(); reject it up front.
        let mut s = sim(DeviceMode::neupims(), 8);
        let err = s.submit(0, 64, 0, 0).unwrap_err();
        assert!(matches!(err, SimError::InvalidShape(_)), "{err}");
        assert_eq!(s.run().unwrap().submitted, 0);
    }

    #[test]
    fn duplicate_submission_is_rejected() {
        // Regression: a duplicate id used to overwrite the arrival entry
        // and poison admission (the second `kv.admit` failed forever,
        // head-of-line blocking the queue).
        let mut s = sim(DeviceMode::neupims(), 8);
        s.submit(0, 64, 4, 0).unwrap();
        let err = s.submit(0, 128, 8, 10).unwrap_err();
        assert!(matches!(err, SimError::DuplicateRequest(_)), "{err}");
        s.submit(1, 64, 4, 0).unwrap();
        let out = s.run().unwrap();
        assert_eq!(out.submitted, 2);
        assert_eq!(out.completed, 2);
        assert_eq!(out.tokens, 8);
    }

    fn tight_sim(capacity_per_channel: u64) -> ServingSim {
        // Custom memory geometry: cannot reuse the memoized Table 2
        // calibration, so this one calibrates its own configuration.
        let mut cfg = NeuPimsConfig::table2();
        cfg.mem.channels = 4;
        cfg.mem.capacity_per_channel = capacity_per_channel;
        let cal = calibrate(&cfg).unwrap();
        ServingSim::new(
            Device::new(cfg, cal, DeviceMode::neupims()),
            LlmConfig::gpt3_7b(),
            ServingConfig {
                max_batch: 16,
                tp: 4,
                layers: 32,
                target_completions: 0,
                slo: None,
            },
        )
        .with_records()
    }

    #[test]
    fn unadmittable_requests_are_dropped_not_lost() {
        // Regression: requests whose context exceeds an empty channel used
        // to vanish from every counter when the run broke out of its
        // admission stall. They must be counted as dropped.
        let mut s = tight_sim(80 << 20); // one ~512-token context/channel
        s.submit(0, 8192, 4, 0).unwrap(); // can never fit
        s.submit(1, 256, 4, 0).unwrap();
        s.submit(2, 256, 4, 0).unwrap();
        let out = s.run().unwrap();
        assert_eq!(out.dropped, 1, "oversized request must be dropped");
        assert_eq!(out.completed, 2);
        assert_eq!(
            out.completed + out.dropped,
            out.submitted,
            "no request may silently vanish"
        );
        assert_eq!(out.tokens, 8, "drops generate no tokens");
        assert_drained(&s);
    }

    #[test]
    fn peak_kv_is_sampled_after_growth() {
        // Regression: the high-water mark used to be sampled before
        // append_token growth (and after releases), under-reporting the
        // true peak. A single request whose final token crosses a page
        // boundary exposes the difference: the peak must reflect the
        // *final* context length, not the penultimate one.
        let mem = NeuPimsConfig::table2().mem;
        let model = LlmConfig::gpt3_7b();
        let geo = KvGeometry::with_tp(&model, &mem, 4);
        let probe = PagedKvCache::new(&mem, geo, 32);
        let (input, output) = (80u32, 5u32); // final seq 85
        let final_pages = probe.pages_for((input + output) as u64);
        assert!(
            final_pages > probe.pages_for((input + output - 1) as u64),
            "test setup: last token must cross a page boundary"
        );
        let pages_per_channel = mem.capacity_per_channel / mem.page_bytes;
        let expected = final_pages as f64 / (pages_per_channel * mem.channels as u64) as f64;

        let mut s = sim(DeviceMode::neupims(), 4);
        s.submit(0, input, output, 0).unwrap();
        let out = s.run().unwrap();
        assert!(
            (out.peak_kv_utilization - expected).abs() < 1e-12,
            "peak {} vs expected {}",
            out.peak_kv_utilization,
            expected
        );
    }

    #[test]
    fn prefill_is_charged_into_ttft() {
        let model = LlmConfig::gpt3_7b();
        let device = table2_device(DeviceMode::neupims());
        let floor = Backend::prefill_cycles(&device, &model, 4, 32, &[256]).unwrap();
        assert!(floor > 0);

        let mut s = sim(DeviceMode::neupims(), 8);
        for i in 0..4 {
            s.submit(i, 256, 6, 0).unwrap();
        }
        let out = s.run().unwrap();
        assert_eq!(out.completed, 4);
        for r in out.records.iter() {
            assert!(
                r.ttft >= floor,
                "TTFT {} must include the {}-cycle prefill",
                r.ttft,
                floor
            );
            assert!(r.ttft < r.latency, "decode tail follows the first token");
            assert!(r.tpot() > 0.0);
        }
    }

    #[test]
    fn arrivals_are_admitted_during_another_requests_prefill() {
        // Regression: with every running request still prefilling, the
        // clock used to jump straight to the earliest prefill completion,
        // starving arrivals that land inside the prefill window. A short
        // request arriving while a long prompt encodes must start its own
        // (much shorter) prefill immediately, not inherit the long one.
        let model = LlmConfig::gpt3_7b();
        let device = table2_device(DeviceMode::neupims());
        let long_prefill = Backend::prefill_cycles(&device, &model, 4, 32, &[4096]).unwrap();

        let mut s = sim(DeviceMode::neupims(), 8);
        s.submit(0, 4096, 4, 0).unwrap();
        s.submit(1, 32, 1, 1_000).unwrap(); // arrives mid-prefill of req 0
        let out = s.run().unwrap();
        assert_eq!(out.completed, 2);
        let short = out.records.iter().find(|r| r.id.0 == 1).unwrap();
        assert!(
            short.ttft < long_prefill,
            "request 1's TTFT ({}) must not absorb request 0's {}-cycle prefill",
            short.ttft,
            long_prefill
        );
    }

    #[test]
    fn blocked_head_drops_before_future_arrivals() {
        // Regression: a permanently unadmittable head used to survive
        // until every future arrival time was consumed, blocking
        // admittable requests for the whole arrival horizon.
        let mut s = tight_sim(80 << 20);
        s.submit(0, 8192, 4, 0).unwrap(); // can never fit an empty channel
        s.submit(1, 256, 4, 0).unwrap();
        s.submit(2, 256, 4, 1_000_000_000).unwrap(); // far-future arrival
        let out = s.run().unwrap();
        assert_eq!(out.dropped, 1);
        assert_eq!(out.completed, 2);
        let early = out.records.iter().find(|r| r.id.0 == 1).unwrap();
        assert!(
            early.latency < 1_000_000_000,
            "request 1 ({} cycles) must not wait for the last arrival",
            early.latency
        );
        assert_drained(&s);
    }

    /// Eight requests, two per channel, whose contexts together outgrow
    /// their channel mid-decode (each fits a channel alone): the
    /// crowded-channel KV-pressure regime preemption exists for.
    fn submit_crowded(s: &mut ServingSim) {
        for i in 0..8 {
            s.submit(i, 256, 200, 0).unwrap();
        }
    }

    #[test]
    fn drop_only_sheds_on_crowded_channel_growth() {
        let mut s = tight_sim(80 << 20);
        submit_crowded(&mut s);
        let out = s.run().unwrap();
        assert_eq!(out.submitted, 8);
        assert!(out.dropped > 0, "crowding must shed under drop-only");
        assert_eq!(out.completed + out.dropped, out.submitted);
        assert_eq!(out.preemptions, 0, "drop-only never parks");
        assert_eq!(out.restores, 0);
        assert_eq!(out.preemption_stall_cycles, 0);
        for r in out.records.iter() {
            assert_eq!(r.preemptions, 0);
        }
        assert_drained(&s);
    }

    #[test]
    fn a_parked_context_outgrowing_every_channel_is_dropped_and_cleared() {
        // Restore-drop exit. Parking keeps a context's length, so a parked
        // request cannot outgrow a channel on its own; stretch a parked
        // prompt past a channel's capacity to reach the path.
        let mut s =
            tight_sim(80 << 20).with_preemption(Box::new(crate::preempt::RecomputeLastAdmitted));
        submit_crowded(&mut s);
        while s.preempted_len() == 0 {
            assert_ne!(s.step().unwrap(), StepEvent::Finished);
        }
        let parked = &mut s.parked[0];
        let id = parked.req.id;
        let before = s.kv.pages_for(parked.req.seq_len() as u64);
        parked.req.input_len = 8192;
        let after = s.kv.pages_for(parked.req.seq_len() as u64);
        assert!(after > s.kv.pages_per_channel());
        s.parked_pages = s.parked_pages - before + after;
        assert!(parked.rec.kv.is_none(), "parked requests hold no pages");
        assert_eq!(parked.rec.preemptions, 1, "and keep their record");

        let mut events = Vec::new();
        loop {
            match s.step().unwrap() {
                StepEvent::Finished => break,
                e => events.push(e),
            }
        }
        assert!(events.contains(&StepEvent::Dropped(id)), "{events:?}");
        let out = s.outcome();
        assert_eq!(out.completed + out.dropped, out.submitted);
        assert!(out.records.iter().all(|r| r.id != id));
        assert_drained(&s);
    }

    #[test]
    fn recompute_preemption_survives_crowding() {
        let mut drop = tight_sim(80 << 20);
        submit_crowded(&mut drop);
        let drop_out = drop.run().unwrap();

        let mut rec =
            tight_sim(80 << 20).with_preemption(Box::new(crate::preempt::RecomputeLastAdmitted));
        submit_crowded(&mut rec);
        let rec_out = rec.run().unwrap();

        assert!(
            rec_out.completed > drop_out.completed,
            "recompute ({}) must complete strictly more than drop-only ({})",
            rec_out.completed,
            drop_out.completed
        );
        assert_eq!(rec_out.completed, 8, "every context fits a channel alone");
        assert_eq!(rec_out.dropped, 0);
        assert_eq!(rec_out.completed + rec_out.dropped, rec_out.submitted);
        assert!(rec_out.preemptions > 0, "survival came from preemption");
        assert_eq!(
            rec_out.restores, rec_out.preemptions,
            "every victim was restored (none outgrew a channel while parked)"
        );
        assert!(rec_out.preemption_stall_cycles > 0);
        assert!(
            rec_out.restore_overhead_cycles > 0,
            "recompute re-pays prefill"
        );
        let preempted_records: u32 = rec_out.records.iter().map(|r| r.preemptions).sum();
        assert_eq!(preempted_records as u64, rec_out.preemptions);
        // Tokens: every request generated its full output exactly once.
        assert_eq!(rec_out.tokens, 8 * 200);
        assert_drained(&rec);
    }

    #[test]
    fn swap_restore_is_cheaper_than_recompute() {
        let run = |policy: Box<dyn crate::preempt::PreemptionPolicy>| {
            let mut s = tight_sim(80 << 20).with_preemption(policy);
            submit_crowded(&mut s);
            s.run().unwrap()
        };
        let rec = run(Box::new(crate::preempt::RecomputeLastAdmitted));
        let swap = run(Box::new(crate::preempt::SwapLru));
        assert_eq!(swap.completed, 8);
        assert_eq!(swap.dropped, 0);
        assert!(swap.preemptions > 0);
        // A 32 GB/s link moves a few-hundred-token context in far fewer
        // cycles than re-running its prefill.
        assert!(
            swap.restore_overhead_cycles < rec.restore_overhead_cycles,
            "swap-in ({}) should undercut recompute ({})",
            swap.restore_overhead_cycles,
            rec.restore_overhead_cycles
        );
    }

    #[test]
    fn admission_preemption_unblocks_the_queue_head() {
        // One channel: request 1 cannot be admitted while request 0 holds
        // its pages. Drop-only makes it wait out request 0's whole decode;
        // recompute evicts request 0 (the newest admission) as soon as it
        // is decode-resident, so request 1's TTFT shrinks.
        let sim_one_channel = || {
            let mut cfg = NeuPimsConfig::table2();
            cfg.mem.channels = 1;
            cfg.mem.capacity_per_channel = 80 << 20;
            let cal = calibrate(&cfg).unwrap();
            ServingSim::new(
                Device::new(cfg, cal, DeviceMode::neupims()),
                LlmConfig::gpt3_7b(),
                ServingConfig {
                    max_batch: 4,
                    tp: 4,
                    layers: 32,
                    target_completions: 0,
                    slo: None,
                },
            )
            .with_records()
        };
        let submit = |s: &mut ServingSim| {
            s.submit(0, 400, 60, 0).unwrap();
            s.submit(1, 400, 4, 0).unwrap();
        };
        let mut drop = sim_one_channel();
        submit(&mut drop);
        let drop_out = drop.run().unwrap();
        assert_eq!(drop_out.completed, 2);
        assert_eq!(drop_out.preemptions, 0);

        let mut rec =
            sim_one_channel().with_preemption(Box::new(crate::preempt::RecomputeLastAdmitted));
        submit(&mut rec);
        let rec_out = rec.run().unwrap();
        assert_eq!(rec_out.completed, 2);
        assert_eq!(rec_out.completed + rec_out.dropped, rec_out.submitted);
        assert!(rec_out.preemptions > 0, "admission must have evicted");
        let ttft =
            |out: &ServingOutcome, id: u32| out.records.iter().find(|r| r.id.0 == id).unwrap().ttft;
        assert!(
            ttft(&rec_out, 1) < ttft(&drop_out, 1),
            "preempting request 0 must cut request 1's TTFT ({} vs {})",
            ttft(&rec_out, 1),
            ttft(&drop_out, 1)
        );
        let victim = rec_out.records.iter().find(|r| r.id.0 == 0).unwrap();
        assert!(victim.preemptions > 0, "request 0 paid the eviction");
    }

    #[test]
    fn parked_requests_stay_visible_to_load_signals() {
        // All 8 crowding requests arrive at once and fit the batch cap,
        // so the waiting queue drains immediately; once the first victim
        // parks, the backlog it represents must still show up in the
        // dispatcher-facing load signals even though it holds no pages.
        let mut s =
            tight_sim(80 << 20).with_preemption(Box::new(crate::preempt::RecomputeLastAdmitted));
        submit_crowded(&mut s);
        while s.preempted_len() == 0 {
            assert_ne!(
                s.step().unwrap(),
                StepEvent::Finished,
                "the crowded trace must preempt before draining"
            );
        }
        assert_eq!(s.waiting_len(), 0, "test setup: nothing left queued");
        assert!(
            s.kv_pressure() > s.kv_utilization(),
            "parked restore demand must show in kv_pressure ({} vs {})",
            s.kv_pressure(),
            s.kv_utilization()
        );
        // Outstanding work still accounts every unfinished request:
        // generated-so-far plus outstanding covers the full trace.
        let generated = s.outcome().tokens;
        assert_eq!(s.outstanding_tokens() + generated, 8 * 200);
    }

    #[test]
    fn preempting_policies_match_drop_only_without_pressure() {
        // On a trace that never runs out of pages, every preemption policy
        // must produce bit-for-bit the drop-only outcome (preemption is a
        // pressure response, not a scheduling change).
        let run = |policy: Box<dyn crate::preempt::PreemptionPolicy>| {
            let mut s = sim(DeviceMode::neupims(), 8).with_preemption(policy);
            for i in 0..12u32 {
                s.submit(i, 64 + i * 16, 3 + i % 5, (i as u64) * 400_000)
                    .unwrap();
            }
            s.run().unwrap()
        };
        let drop = run(Box::new(crate::preempt::DropOnly));
        let rec = run(Box::new(crate::preempt::RecomputeLastAdmitted));
        let swap = run(Box::new(crate::preempt::SwapLru));
        assert_eq!(drop, rec);
        assert_eq!(drop, swap);
        assert_eq!(drop.preemptions, 0);
    }

    #[test]
    fn slo_attainment_and_goodput() {
        let run_with = |slo: Option<SloTargets>| {
            let mut s = sim(DeviceMode::neupims(), 8);
            s.cfg.slo = slo;
            for i in 0..6 {
                s.submit(i, 64, 4, 0).unwrap();
            }
            s.run().unwrap()
        };
        let loose = run_with(Some(SloTargets {
            ttft: u64::MAX,
            tpot: f64::INFINITY,
        }));
        assert_eq!(loose.slo_attained, 6);
        assert!((loose.slo_attainment() - 1.0).abs() < 1e-12);
        assert!((loose.goodput() - loose.tokens_per_sec()).abs() < 1e-9);

        let impossible = run_with(Some(SloTargets { ttft: 0, tpot: 0.0 }));
        assert_eq!(impossible.slo_attained, 0);
        assert_eq!(impossible.slo_attainment(), 0.0);
        assert_eq!(impossible.goodput(), 0.0);

        let unset = run_with(None);
        assert_eq!(unset.slo_attained, unset.completed);
        assert!((unset.goodput() - unset.tokens_per_sec()).abs() < 1e-9);
    }

    #[test]
    fn step_api_exposes_live_state() {
        let mut s = sim(DeviceMode::neupims(), 2);
        s.submit(0, 64, 3, 0).unwrap();
        s.submit(1, 64, 3, 0).unwrap();
        s.submit(2, 64, 3, 0).unwrap(); // over the batch cap: stays queued
        assert_eq!(s.waiting_len(), 3);
        assert_eq!(s.outstanding_tokens(), 9);
        let mut events = Vec::new();
        loop {
            let e = s.step().unwrap();
            if e == StepEvent::Finished {
                break;
            }
            events.push(e);
        }
        assert!(events.contains(&StepEvent::Iteration));
        assert!(
            events.contains(&StepEvent::Waited),
            "prefill gating must produce at least one wait: {events:?}"
        );
        assert_eq!(s.completed(), 3);
        assert_eq!(s.waiting_len(), 0);
        assert_eq!(s.running_len(), 0);
        assert!(s.now() > 0);
        assert_eq!(s.kv_utilization(), 0.0, "all pages released at drain");
        let out = s.outcome();
        assert_eq!(out.completed, 3);
    }
}
