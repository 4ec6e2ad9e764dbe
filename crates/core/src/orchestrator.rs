//! Capability-aware meta-orchestration above the replica fleet.
//!
//! [`FleetSim`](crate::fleet::FleetSim) dispatches load-only over a fixed
//! replica set: no backend capabilities, no tenants, no warmup pricing,
//! and the fleet size never changes mid-run. The [`Orchestrator`] is the
//! serving layer above it — ROADMAP item 2's resource abstraction layer —
//! and adds four things:
//!
//! 1. **Capability descriptors.** Every slot carries its backend's
//!    [`CapabilityProfile`] (context/batch/model envelopes plus warmup
//!    cost). Spin-up is priced as a first-class
//!    [`SimEvent::ReplicaWarmup`] on the event spine: a replica committed
//!    at `t` is *not dispatchable* until `t + warmup_cycles` — IANUS-style
//!    model placement into the PIM memory pool is simulated time, not a
//!    free action.
//! 2. **Tenant classes.** Each request belongs to a [`TenantClass`] with
//!    its own [`SloTargets`], priority, and traffic share; the outcome
//!    reports per-tenant TTFT/TPOT percentiles, SLO attainment, and
//!    goodput ([`TenantOutcome`]).
//! 3. **Admission control + autoscaling.** An [`AutoscalePolicy`]
//!    (static, reactive queue-depth, or EWMA-predictive) decides the
//!    committed replica count at every arrival, spinning slots up (paying
//!    warmup) and draining excess ones until they can park; the
//!    admission controller sheds or
//!    defers low-priority traffic when fleet KV pressure predicts the
//!    admitted high-priority goodput would degrade.
//! 4. **Capability-aware routing.** A [`RoutePolicy`] scores
//!    (tenant class × request shape × backend capability × live pressure)
//!    per request: long-context work lands on PIM-bearing replicas whose
//!    in-memory MHA envelope absorbs it, short bursty chat on GPU-class
//!    replicas that warm up cheaply.
//!
//! The economics are summarized by
//! [`OrchestratorOutcome::goodput_per_cost`]: SLO-attaining tokens per
//! replica-Mcycle paid for. Static fleets pay for idle capacity all
//! night; the predictive autoscaler rides the diurnal curve — the
//! `orchestrator` eval suite pins that it wins on that metric against
//! every static size.
//!
//! The degenerate configuration — single tenant, [`StaticScale`] at the
//! full fleet, [`LoadOnly`] routing, warm start, admit-all — *is*
//! [`FleetSim`](crate::fleet::FleetSim): the fleet runs on this module's
//! barrier loop, and the orchestrator parity suite holds both to the
//! fleet's lockstep reference bit for bit, so everything above is
//! strictly additive.
//!
//! Both kinds of policy read one slot type, [`ReplicaSnapshot`]
//! ([`RouteCandidate`] is its other name), and answer a position in the
//! candidate slice. The engine holds one route policy; a fleet's
//! [`DispatchPolicy`] runs behind [`LoadOnly`].
//!
//! The loop's bookkeeping per arrival is O(due slots): the slot-state
//! counts, the queue total over dispatchable slots and the candidate
//! list, the one store of the On slots' snapshots, are fields, updated
//! on slot transitions and snapshot refreshes, and debug builds check
//! them against a full walk of the slot table at every barrier.
//!
//! # Example
//!
//! ```
//! use neupims_core::backend::GpuRooflineBackend;
//! use neupims_core::fleet::{FleetRequest, JoinShortestQueue};
//! use neupims_core::orchestrator::{
//!     LoadOnly, OrchRequest, Orchestrator, OrchestratorConfig, StaticScale, TenantClass,
//! };
//! use neupims_core::serving::{ServingConfig, ServingSim, SloTargets};
//! use neupims_types::LlmConfig;
//!
//! let cfg = ServingConfig {
//!     max_batch: 8,
//!     tp: 4,
//!     layers: 32,
//!     target_completions: 0,
//!     slo: None,
//! };
//! let slots: Vec<_> = (0..2)
//!     .map(|_| ServingSim::new(GpuRooflineBackend::a100(), LlmConfig::gpt3_7b(), cfg.clone()))
//!     .collect();
//! // 100 ms to first token and 50 ms per output token (at 1 GHz): a
//! // budget GPU-roofline replicas meet, so the run earns goodput.
//! let tenants = vec![TenantClass::new(
//!     "chat",
//!     SloTargets { ttft: 100_000_000, tpot: 50_000_000.0 },
//!     200,
//!     1.0,
//! )];
//! let mut orch = Orchestrator::new(
//!     slots,
//!     tenants,
//!     Box::new(LoadOnly::new(Box::new(JoinShortestQueue))),
//!     Box::new(StaticScale::full()),
//!     OrchestratorConfig::default_for(2),
//! )
//! .unwrap();
//! for i in 0..6 {
//!     orch.submit(OrchRequest {
//!         req: FleetRequest { id: i, input_len: 64, output_len: 2, arrival: 0 },
//!         tenant: 0,
//!     })
//!     .unwrap();
//! }
//! let out = orch.run().unwrap();
//! assert_eq!(out.fleet.completed, 6);
//! assert_eq!(out.tenants[0].admitted, 6);
//! assert!(out.goodput_per_cost() > 0.0);
//! ```

use std::collections::hash_map::Entry;
use std::collections::VecDeque;

use neupims_types::{Cycle, IdMap, RequestId, SimError};

use crate::backend::{Backend, BackendError, CapabilityProfile};
use crate::event::{EventQueue, SimEvent};
use crate::fleet::{
    advance_set, advance_to, DispatchPolicy, FleetOutcome, FleetRequest, ReplicaSnapshot,
};
use crate::serving::{ServingOutcome, ServingSim, SloTargets};

/// Arrival-rate observations are taken over a sliding window of this many
/// recent arrivals (enough to smooth burst noise, short enough to track a
/// diurnal swing).
const RATE_WINDOW: usize = 32;

/// One serving class sharing the orchestrated fleet.
///
/// The orchestrator-level counterpart of the workload generator's
/// `neupims_workload::scenario::TenantClass`: where the generator's class
/// shapes request lengths, this one carries the serving contract —
/// latency targets, scheduling priority, and the expected traffic share
/// (used for reporting, not enforcement).
#[derive(Debug, Clone, PartialEq)]
pub struct TenantClass {
    /// Human-readable tenant name.
    pub name: String,
    /// The tenant's latency targets; per-tenant goodput grades against
    /// these, not a fleet-wide SLO.
    pub slo: SloTargets,
    /// Scheduling priority, `0..=255`. Tenants at or above the admission
    /// controller's `priority_floor` bypass admission entirely.
    pub priority: u8,
    /// Expected share of submitted traffic, `[0, 1]` (reporting only).
    pub share: f64,
}

impl TenantClass {
    /// Builds a tenant class.
    pub fn new(name: &str, slo: SloTargets, priority: u8, share: f64) -> Self {
        Self {
            name: name.to_owned(),
            slo,
            priority,
            share,
        }
    }
}

/// One request entering the orchestrator frontend: a fleet request tagged
/// with the tenant class it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrchRequest {
    /// The request shape and arrival.
    pub req: FleetRequest,
    /// Index into the orchestrator's tenant table.
    pub tenant: usize,
}

/// What an [`AutoscalePolicy`] sees at each decision point (every
/// arrival instant).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscaleObservation {
    /// The decision instant (the arrival's timestamp).
    pub now: Cycle,
    /// Dispatchable (warmed-up, not parked) replicas.
    pub active: usize,
    /// Replicas committed but still paying warmup.
    pub warming: usize,
    /// Total queue depth (waiting + running + preempted) across active
    /// replicas.
    pub queue: usize,
    /// Recent arrival rate, requests per Mcycle, over a sliding window of
    /// the last `RATE_WINDOW` (32) arrivals (0 until two arrivals are
    /// seen).
    pub arrival_rate: f64,
    /// Floor on the committed replica count.
    pub min_replicas: usize,
    /// Ceiling on the committed replica count (the slot table size).
    pub max_replicas: usize,
}

/// Decides the committed replica count (active + warming) at every
/// arrival.
///
/// Returned values are clamped to `[min_replicas, max_replicas]`; scaling
/// up pays each new slot's [`CapabilityProfile::warmup_cycles`] before it
/// becomes dispatchable. Scaling down drains before it parks: an idle
/// replica parks immediately, while a busy one stops receiving new work
/// and parks the moment its queue empties. A draining replica is no
/// longer counted as committed, so a demand rebound cancels the drain
/// (resurrecting it instantly, with no warmup) before any parked slot is
/// asked to warm up.
pub trait AutoscalePolicy {
    /// Human-readable policy name (printed by the CLI).
    fn name(&self) -> &'static str;

    /// The desired committed replica count for this observation.
    fn desired(&mut self, obs: &AutoscaleObservation) -> usize;
}

/// Fixed-size fleet: always asks for the same committed count.
#[derive(Debug, Clone, Copy)]
pub struct StaticScale {
    /// The committed replica count to hold (clamped to the fleet bounds).
    pub replicas: usize,
}

impl StaticScale {
    /// Holds every slot on: the degenerate configuration that reproduces
    /// [`FleetSim::run`](crate::fleet::FleetSim::run).
    pub fn full() -> Self {
        Self {
            replicas: usize::MAX,
        }
    }
}

impl AutoscalePolicy for StaticScale {
    fn name(&self) -> &'static str {
        "static"
    }

    fn desired(&mut self, _obs: &AutoscaleObservation) -> usize {
        self.replicas
    }
}

/// Reactive queue-depth scaling: enough replicas to hold the live backlog
/// at `target_queue` requests per replica, shrinking to the floor when
/// the backlog drains. Reacts *after* pressure builds — the backlog has
/// already formed by the time capacity is committed, and each new replica
/// still pays warmup before helping.
#[derive(Debug, Clone, Copy)]
pub struct ReactiveQueueDepth {
    /// Queue depth one replica is allowed to hold before another is
    /// committed.
    pub target_queue: f64,
}

impl Default for ReactiveQueueDepth {
    fn default() -> Self {
        Self { target_queue: 4.0 }
    }
}

impl AutoscalePolicy for ReactiveQueueDepth {
    fn name(&self) -> &'static str {
        "reactive"
    }

    fn desired(&mut self, obs: &AutoscaleObservation) -> usize {
        if obs.queue == 0 {
            obs.min_replicas
        } else {
            (obs.queue as f64 / self.target_queue.max(1e-9)).ceil() as usize
        }
    }
}

/// Predictive autoscaling: a Holt double-EWMA (level + trend) of the
/// arrival rate, sized against a per-replica service capacity. The trend
/// term is the point: on a diurnal upswing the predicted rate runs ahead
/// of the measured one, so warmup is paid *before* the peak arrives and
/// capacity is dispatchable when the wave lands; on the downswing the
/// prediction undershoots and idle replicas park early — exactly the
/// goodput-per-cost lever the static fleet lacks.
///
/// Scaling is deliberately asymmetric: the desired count jumps up
/// immediately (capacity shortfalls cost SLO misses) but decays down by
/// at most one replica per observation (a parked replica re-pays warmup,
/// so chasing every dip thrashes the fleet for nothing).
#[derive(Debug, Clone, Copy)]
pub struct EwmaPredictive {
    /// Level smoothing factor, `(0, 1]`.
    pub alpha: f64,
    /// Trend smoothing factor, `(0, 1]`.
    pub beta: f64,
    /// Arrival rate (requests per Mcycle) one replica absorbs while
    /// meeting SLOs — the capacity denominator.
    pub capacity_per_replica: f64,
    /// How many observations ahead the trend is extrapolated (covers the
    /// warmup lead time).
    pub lookahead: f64,
    /// Reactive floor: never fewer replicas than `queue / queue_floor`
    /// (guards against a death spiral when the prediction lags a burst).
    pub queue_floor: f64,
    level: f64,
    trend: f64,
    primed: bool,
    held: usize,
}

impl EwmaPredictive {
    /// A predictive policy sized for `capacity_per_replica` requests per
    /// Mcycle per replica, with the default smoothing (`alpha` 0.2,
    /// `beta` 0.1, lookahead 12 observations, queue floor 8).
    pub fn new(capacity_per_replica: f64) -> Self {
        Self {
            alpha: 0.15,
            beta: 0.1,
            capacity_per_replica,
            lookahead: 12.0,
            queue_floor: 8.0,
            level: 0.0,
            trend: 0.0,
            primed: false,
            held: 0,
        }
    }
}

impl AutoscalePolicy for EwmaPredictive {
    fn name(&self) -> &'static str {
        "predictive"
    }

    fn desired(&mut self, obs: &AutoscaleObservation) -> usize {
        let rate = obs.arrival_rate;
        if !self.primed {
            self.level = rate;
            self.trend = 0.0;
            self.primed = true;
        } else {
            let prev = self.level;
            self.level = self.alpha * rate + (1.0 - self.alpha) * (self.level + self.trend);
            self.trend = self.beta * (self.level - prev) + (1.0 - self.beta) * self.trend;
        }
        let predicted = (self.level + self.trend * self.lookahead).max(0.0);
        let for_rate = (predicted / self.capacity_per_replica.max(1e-9)).ceil() as usize;
        let for_queue = (obs.queue as f64 / self.queue_floor.max(1e-9)).ceil() as usize;
        let want = for_rate.max(for_queue).max(obs.min_replicas);
        // Asymmetric: jump up instantly, bleed down one per observation.
        self.held = if want >= self.held {
            want
        } else {
            (self.held - 1).max(want)
        };
        self.held
    }
}

/// Canonical autoscale policy names accepted by [`autoscale_from_name`]
/// (and the CLI's `--autoscale` flag).
pub const AUTOSCALE_NAMES: [&str; 3] = ["static", "reactive", "predictive"];

/// Builds a boxed autoscale policy from its CLI name (case-insensitive).
/// `static` holds every slot on; `reactive` targets 4 queued requests per
/// replica; `predictive` uses the default EWMA tuning at a capacity of
/// 0.2 requests per Mcycle per replica — calibrated against a gpt3-7b
/// replica at `max_batch` 8 on the shipped cost model, where batching
/// absorbs roughly that arrival rate before TTFT queueing sets in
/// (override by constructing [`EwmaPredictive`] directly).
///
/// # Errors
///
/// Returns [`BackendError::InvalidSimulation`] for unrecognized names.
pub fn autoscale_from_name(name: &str) -> Result<Box<dyn AutoscalePolicy>, BackendError> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "static" => Box::new(StaticScale::full()),
        "reactive" | "queue-depth" => Box::new(ReactiveQueueDepth::default()),
        "predictive" | "ewma" => Box::new(EwmaPredictive::new(0.2)),
        other => {
            return Err(BackendError::InvalidSimulation(format!(
                "unknown autoscale policy {other:?} (expected one of: {})",
                AUTOSCALE_NAMES.join(", ")
            )))
        }
    })
}

/// One dispatchable slot as seen by a [`RoutePolicy`]: the snapshot a
/// [`DispatchPolicy`] reads, which carries the slot's capability
/// profile. `index` is the global slot index; the route answer is a
/// position *within the candidate slice*.
pub type RouteCandidate = ReplicaSnapshot;

/// Chooses a dispatchable slot for each admitted request.
///
/// Consulted once per request, in arrival order, with exactly the warmed-
/// up (dispatchable) slots as candidates, in slot order — warming and
/// parked slots are never offered.
pub trait RoutePolicy {
    /// Human-readable policy name (printed by the CLI).
    fn name(&self) -> &'static str;

    /// Picks a position (`< candidates.len()`) in `candidates` for `req`.
    fn route(
        &mut self,
        candidates: &[RouteCandidate],
        req: &FleetRequest,
        tenant: &TenantClass,
    ) -> usize;
}

/// Capability-blind routing: delegates to a classic [`DispatchPolicy`]
/// over the candidates, whose answer is already a position, and reports
/// its name. With every slot dispatchable this is exactly
/// [`FleetSim`](crate::fleet::FleetSim) dispatch, which runs its policy
/// through it.
pub struct LoadOnly {
    inner: Box<dyn DispatchPolicy>,
}

impl LoadOnly {
    /// Wraps a dispatch policy.
    pub fn new(inner: Box<dyn DispatchPolicy>) -> Self {
        Self { inner }
    }
}

impl std::fmt::Debug for LoadOnly {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoadOnly")
            .field("inner", &self.inner.name())
            .finish()
    }
}

impl RoutePolicy for LoadOnly {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn route(
        &mut self,
        candidates: &[RouteCandidate],
        req: &FleetRequest,
        _tenant: &TenantClass,
    ) -> usize {
        self.inner.choose(candidates, req)
    }
}

/// Capability-aware routing: scores every candidate on (request shape ×
/// backend capability × live pressure) and picks the cheapest.
///
/// Long-context requests (total context past `long_context`) are steered
/// to PIM-bearing slots, whose in-memory MHA holds the long-context
/// envelope; short requests are nudged *off* PIM slots so that envelope
/// stays free for the work that needs it. A request that would overflow a
/// slot's context envelope pays a hard penalty (it is only chosen when
/// nothing fits). Live KV pressure and queue depth break the capability
/// ties, and the slot index breaks exact ones — the policy is fully
/// deterministic.
#[derive(Debug, Clone, Copy)]
pub struct CapabilityAware {
    /// Context length (prompt + generation) above which a request is
    /// treated as long-context.
    pub long_context: u32,
}

impl Default for CapabilityAware {
    fn default() -> Self {
        Self { long_context: 1024 }
    }
}

impl RoutePolicy for CapabilityAware {
    fn name(&self) -> &'static str {
        "capability"
    }

    fn route(
        &mut self,
        candidates: &[RouteCandidate],
        req: &FleetRequest,
        _tenant: &TenantClass,
    ) -> usize {
        let ctx = req.input_len.saturating_add(req.output_len);
        let long = ctx > self.long_context;
        let mut best = 0;
        let mut best_score = f64::INFINITY;
        for (pos, c) in candidates.iter().enumerate() {
            let mut score = 0.0;
            if !c.profile.fits_context(ctx) {
                // Overflow: only acceptable when nothing fits.
                score += 1e6;
            }
            if long && !c.profile.caps.uses_pim {
                // Long-context work off PIM loses the in-memory MHA win.
                score += 100.0;
            }
            if !long && c.profile.caps.uses_pim {
                // Keep the long-context envelope free for work needing it.
                score += 10.0;
            }
            // Live pressure: KV oversubscription dominates, then backlog.
            score += c.kv_pressure * 50.0;
            score += c.queue_len() as f64 * 4.0;
            if score < best_score {
                best_score = score;
                best = pos;
            }
        }
        best
    }
}

/// Canonical router names accepted by [`router_from_name`] (and the
/// CLI's `--router` flag).
pub const ROUTER_NAMES: [&str; 3] = ["load", "round-robin", "capability"];

/// Builds a boxed route policy from its CLI name (case-insensitive).
/// `load` wraps join-shortest-queue and `round-robin` the blind rotation
/// baseline in [`LoadOnly`], so they report the names `jsq` and
/// `round-robin`; `capability` is [`CapabilityAware`].
///
/// # Errors
///
/// Returns [`BackendError::InvalidSimulation`] for unrecognized names.
pub fn router_from_name(name: &str) -> Result<Box<dyn RoutePolicy>, BackendError> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "load" | "jsq" => Box::new(LoadOnly::new(Box::new(crate::fleet::JoinShortestQueue))),
        "round-robin" | "rr" => {
            Box::new(LoadOnly::new(Box::new(crate::fleet::RoundRobin::default())))
        }
        "capability" | "cap" => Box::new(CapabilityAware::default()),
        other => {
            return Err(BackendError::InvalidSimulation(format!(
                "unknown route policy {other:?} (expected one of: {})",
                ROUTER_NAMES.join(", ")
            )))
        }
    })
}

/// Admission-control thresholds.
///
/// The controller protects admitted high-priority goodput with a cheap
/// online proxy: mean KV pressure across the dispatchable replicas
/// (reserved pages + queued prompt demand + parked restore demand over
/// pool size). When the fleet's KV envelope oversubscribes, every
/// admitted request queues behind it — so rising pressure *is* the
/// prediction that TTFT/TPOT of already-admitted work will degrade.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Tenants with `priority >= priority_floor` bypass admission: they
    /// are always dispatched at arrival. This makes priority monotone by
    /// construction — raising a tenant past the floor only ever grows its
    /// served set.
    pub priority_floor: u8,
    /// Mean dispatchable-replica KV pressure at which low-priority
    /// arrivals are deferred by [`Self::defer_cycles`] (one bump, then
    /// they are served).
    pub defer_pressure: f64,
    /// Mean dispatchable-replica KV pressure at which low-priority
    /// arrivals are shed outright.
    pub shed_pressure: f64,
    /// How far a deferred arrival is pushed into the future.
    pub defer_cycles: Cycle,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            priority_floor: 100,
            defer_pressure: 1.2,
            shed_pressure: 2.5,
            defer_cycles: 2_000_000,
        }
    }
}

/// Orchestrator-level configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrchestratorConfig {
    /// Floor on the committed replica count.
    pub min_replicas: usize,
    /// Ceiling on the committed replica count. Must equal the slot table
    /// size handed to [`Orchestrator::new`].
    pub max_replicas: usize,
    /// Whether the initial `min_replicas` slots start already warmed up
    /// (`true`, the default — a serving deployment pre-warms its floor;
    /// also required for bit-parity with the legacy fleet). With `false`
    /// even the floor pays warmup before the first dispatch.
    pub warm_start: bool,
    /// Admission-control thresholds.
    pub admission: AdmissionConfig,
}

impl OrchestratorConfig {
    /// A static-friendly default: floor == ceiling == `n`, warm start,
    /// default admission thresholds.
    pub fn default_for(n: usize) -> Self {
        Self {
            min_replicas: n,
            max_replicas: n,
            warm_start: true,
            admission: AdmissionConfig::default(),
        }
    }
}

/// Lifecycle state of one slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    /// Parked: costs nothing, receives nothing.
    Off,
    /// Committed, paying warmup until `ready_at`; not dispatchable.
    Warming {
        /// When the pending [`SimEvent::ReplicaWarmup`] fires.
        ready_at: Cycle,
    },
    /// Warmed up and dispatchable.
    On,
    /// Condemned by a scale-down: takes no new work, still paying for
    /// its cycles, and parks the moment its queue empties. A scale-up
    /// cancels the drain for free (the slot is already warm).
    Draining,
}

/// Per-slot lifecycle statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SlotStats {
    /// Global slot index.
    pub index: usize,
    /// Requests dispatched to this slot.
    pub served: u64,
    /// Cycles this slot was committed (warming + on), the cost
    /// denominator of [`OrchestratorOutcome::goodput_per_cost`].
    pub cycles_on: Cycle,
    /// Dispatchability windows `(ready_at, parked_at)`, `parked_at ==
    /// Cycle::MAX` for a window still open at the end of the run. Every
    /// request served by the slot arrived inside one of these windows
    /// (pinned by the orchestrator property suite).
    pub windows: Vec<(Cycle, Cycle)>,
}

/// Per-tenant outcome of an orchestrated run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantOutcome {
    /// Tenant name.
    pub name: String,
    /// Tenant priority at run time.
    pub priority: u8,
    /// Requests submitted for this tenant.
    pub submitted: u64,
    /// Requests dispatched at their arrival instant.
    pub admitted: u64,
    /// Requests delayed (admission bump or warmup wait) before being
    /// served. Disjoint from `admitted`: `admitted + deferred + shed ==
    /// submitted`.
    pub deferred: u64,
    /// Requests refused by admission control.
    pub shed: u64,
    /// Completed requests.
    pub completed: u64,
    /// Dispatched requests dropped by their replica (KV-pressure sheds).
    pub dropped: u64,
    /// Generated tokens over completed requests.
    pub tokens: u64,
    /// Completed requests meeting *this tenant's* SLO (measured from the
    /// true arrival: deferral delay counts against TTFT and latency).
    pub slo_attained: u64,
    /// Tokens from SLO-attaining requests.
    pub goodput_tokens: u64,
    /// Sorted per-request TTFTs (from true arrival), cycles.
    pub ttfts: Vec<Cycle>,
    /// Sorted per-request TPOTs, cycles per token.
    pub tpots: Vec<f64>,
    /// Sorted per-request latencies (from true arrival), cycles.
    pub latencies: Vec<Cycle>,
}

impl TenantOutcome {
    /// Fraction of completed requests meeting the tenant SLO, `[0, 1]`
    /// (0 when nothing completed).
    pub fn slo_attainment(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.slo_attained as f64 / self.completed as f64
        }
    }

    /// Tenant TTFT percentile, cycles.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn ttft_percentile(&self, p: f64) -> Cycle {
        crate::serving::nearest_rank(&self.ttfts, p)
    }

    /// Tenant TPOT percentile, cycles per token.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn tpot_percentile(&self, p: f64) -> f64 {
        crate::serving::nearest_rank(&self.tpots, p)
    }
}

/// Aggregated outcome of an orchestrated run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OrchestratorOutcome {
    /// The fleet-level aggregate over every slot. `fleet.submitted`
    /// counts *dispatched* requests (admitted + deferred-then-served), so
    /// the fleet's `completed + dropped == submitted` conservation holds
    /// below the orchestrator's shed accounting.
    pub fleet: FleetOutcome,
    /// Per-tenant outcomes, in tenant-table order.
    pub tenants: Vec<TenantOutcome>,
    /// Per-slot lifecycle statistics, in slot order.
    pub slots: Vec<SlotStats>,
    /// Total committed replica-cycles (the cost denominator): warming and
    /// on time summed over slots, idle-but-on time included — capacity
    /// held is capacity paid for.
    pub replica_cycles_on: Cycle,
    /// Warmups paid (scale-up events that priced a
    /// [`SimEvent::ReplicaWarmup`]).
    pub warmups: u64,
    /// Scale-up decisions.
    pub scale_ups: u64,
    /// Scale-down (park) decisions.
    pub scale_downs: u64,
    /// Peak committed replica count (active + warming).
    pub peak_replicas: usize,
    /// Requests shed across tenants.
    pub shed: u64,
    /// Requests deferred across tenants.
    pub deferred: u64,
}

impl OrchestratorOutcome {
    /// Goodput per cost: tenant-SLO-attaining tokens per committed
    /// replica-Mcycle. The tentpole metric — a static fleet pays
    /// `replicas × makespan` whatever the diurnal phase, while an
    /// autoscaled fleet pays only for capacity it held.
    pub fn goodput_per_cost(&self) -> f64 {
        if self.replica_cycles_on == 0 {
            0.0
        } else {
            let goodput: u64 = self.tenants.iter().map(|t| t.goodput_tokens).sum();
            goodput as f64 / (self.replica_cycles_on as f64 / 1e6)
        }
    }
}

/// The error for a policy named `name` choosing position `choice` of
/// `offered` candidates.
pub(crate) fn out_of_range(name: &str, choice: usize, offered: usize) -> SimError {
    SimError::Scheduling(format!(
        "policy {name:?} chose position {choice}, but the offered slot count is {offered}"
    ))
}

/// The arrivals of one run in dispatch order: the sorted pending requests
/// merged with those re-queued by a deferral. This is the order one
/// [`EventQueue`] holding them all would pop: at equal times the
/// originally pending requests go first, since they were queued first.
struct Arrivals {
    sorted: std::vec::IntoIter<OrchRequest>,
    requeued: EventQueue<OrchRequest>,
}

impl Arrivals {
    /// Re-queues `r` to arrive at `at`.
    fn defer(&mut self, mut r: OrchRequest, at: Cycle) {
        r.req.arrival = at;
        self.requeued.push(at, r);
    }

    fn pop(&mut self) -> Option<(Cycle, OrchRequest)> {
        let next = self.sorted.as_slice().first().map(|r| r.req.arrival);
        match (next, self.requeued.peek()) {
            (Some(t), Some((at, _))) if at < t => self.requeued.pop(),
            (Some(t), _) => self.sorted.next().map(|r| (t, r)),
            (None, _) => self.requeued.pop(),
        }
    }
}

/// What each arrival reads of the slot table, kept current on slot
/// transitions and snapshot refreshes instead of rebuilt per arrival. At
/// every barrier it equals [`Orchestrator::walk`] (debug-asserted).
#[derive(Debug, Default, PartialEq)]
struct SlotView {
    /// Slots paying warmup.
    warming: usize,
    /// Slots draining toward park.
    draining: usize,
    /// Queue depth summed over the On slots.
    on_queue: usize,
    /// The On (dispatchable) slots' snapshots in slot order, as the route
    /// policy is offered them: the only snapshots the engine keeps.
    cands: Vec<RouteCandidate>,
}

impl SlotView {
    /// Position of slot `i` in (or for) the candidate list.
    fn pos(&self, i: usize) -> usize {
        self.cands.partition_point(|c| c.index < i)
    }

    /// Counts slot `snap.index` in `state`; an On slot joins the
    /// candidates as `snap`.
    fn enter(&mut self, state: SlotState, snap: ReplicaSnapshot) {
        match state {
            SlotState::Off => {}
            SlotState::Warming { .. } => self.warming += 1,
            SlotState::Draining => self.draining += 1,
            SlotState::On => {
                self.on_queue += snap.queue_len();
                self.cands.insert(self.pos(snap.index), snap);
            }
        }
    }

    /// Undoes [`Self::enter`] for slot `i`.
    fn leave(&mut self, i: usize, state: SlotState) {
        match state {
            SlotState::Off => {}
            SlotState::Warming { .. } => self.warming -= 1,
            SlotState::Draining => self.draining -= 1,
            SlotState::On => {
                let snap = self.cands.remove(self.pos(i));
                self.on_queue -= snap.queue_len();
            }
        }
    }
}

/// The meta-serving layer: a slot table of replicas behind admission
/// control, an autoscaler, and a capability-aware router.
///
/// See the [module docs](self) for the architecture tour and
/// `docs/ORCHESTRATOR.md` for the full walkthrough.
pub struct Orchestrator<B: Backend> {
    pub(crate) slots: Vec<ServingSim<B>>,
    pub(crate) profiles: Vec<CapabilityProfile>,
    state: Vec<SlotState>,
    on_since: Vec<Cycle>,
    stats: Vec<SlotStats>,
    pub(crate) tenants: Vec<TenantClass>,
    pub(crate) route: Box<dyn RoutePolicy>,
    autoscale: Box<dyn AutoscalePolicy>,
    cfg: OrchestratorConfig,
    pub(crate) pending: Vec<OrchRequest>,
    /// Every submitted id, mapped to its tenant (a `u32` halves the
    /// table, which holds one entry per request).
    tenant_of: IdMap<RequestId, u32>,
    submitted: Vec<u64>,
    admitted: Vec<u64>,
    deferred: Vec<u64>,
    shed: Vec<u64>,
    pub(crate) dispatched: u64,
    defer_delay: IdMap<RequestId, Cycle>,
    warmups: u64,
    scale_ups: u64,
    scale_downs: u64,
    peak_committed: usize,
    pub(crate) jobs: usize,
    view: SlotView,
}

impl<B: Backend> std::fmt::Debug for Orchestrator<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Orchestrator")
            .field("slots", &self.slots.len())
            .field("tenants", &self.tenants.len())
            .field("route", &self.route.name())
            .field("autoscale", &self.autoscale.name())
            .field("pending", &self.pending.len())
            .finish()
    }
}

impl<B: Backend> Orchestrator<B> {
    /// Builds an orchestrator over a slot table.
    ///
    /// `slots.len()` is the scaling ceiling and must equal
    /// `cfg.max_replicas`; every slot's capability profile is read from
    /// its backend once, up front. With `cfg.warm_start` the first
    /// `min_replicas` slots start dispatchable at cycle 0; the rest start
    /// parked.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::InvalidSimulation`] for an empty slot
    /// table, an empty tenant table, a `min_replicas` of zero or above
    /// the ceiling, a ceiling mismatching the slot table, or a slot with
    /// `target_completions > 0` (orchestrated slots must drain, like
    /// fleet replicas).
    pub fn new(
        slots: Vec<ServingSim<B>>,
        tenants: Vec<TenantClass>,
        route: Box<dyn RoutePolicy>,
        autoscale: Box<dyn AutoscalePolicy>,
        cfg: OrchestratorConfig,
    ) -> Result<Self, BackendError> {
        check_slots(&slots, "orchestrator", "slot")?;
        if tenants.is_empty() {
            return Err(BackendError::InvalidSimulation(
                "orchestrator needs at least one tenant class".into(),
            ));
        }
        if cfg.max_replicas != slots.len() {
            return Err(BackendError::InvalidSimulation(format!(
                "max_replicas {} must equal the slot table size {}",
                cfg.max_replicas,
                slots.len()
            )));
        }
        if cfg.min_replicas == 0 || cfg.min_replicas > cfg.max_replicas {
            return Err(BackendError::InvalidSimulation(format!(
                "min_replicas {} must be in 1..={}",
                cfg.min_replicas, cfg.max_replicas
            )));
        }
        Ok(Self::engine(slots, tenants, route, autoscale, cfg))
    }

    /// The engine over validated parts; [`FleetSim`](crate::fleet::FleetSim)
    /// builds its degenerate configuration through it.
    pub(crate) fn engine(
        slots: Vec<ServingSim<B>>,
        tenants: Vec<TenantClass>,
        route: Box<dyn RoutePolicy>,
        autoscale: Box<dyn AutoscalePolicy>,
        cfg: OrchestratorConfig,
    ) -> Self {
        let profiles: Vec<CapabilityProfile> = slots
            .iter()
            .map(|s| s.backend().capability_profile())
            .collect();
        let n = slots.len();
        let mut state = vec![SlotState::Off; n];
        let mut stats: Vec<SlotStats> = (0..n)
            .map(|index| SlotStats {
                index,
                ..Default::default()
            })
            .collect();
        let mut warmups = 0;
        for (i, st) in state.iter_mut().enumerate().take(cfg.min_replicas) {
            let ready_at = if cfg.warm_start {
                0
            } else {
                profiles[i].warmup_cycles
            };
            if ready_at == 0 {
                *st = SlotState::On;
                stats[i].windows.push((0, Cycle::MAX));
            } else {
                *st = SlotState::Warming { ready_at };
                warmups += 1;
            }
        }
        let tenant_count = tenants.len();
        Self {
            slots,
            profiles,
            state,
            on_since: vec![0; n],
            stats,
            tenants,
            route,
            autoscale,
            cfg,
            pending: Vec::new(),
            tenant_of: IdMap::default(),
            submitted: vec![0; tenant_count],
            admitted: vec![0; tenant_count],
            deferred: vec![0; tenant_count],
            shed: vec![0; tenant_count],
            dispatched: 0,
            defer_delay: IdMap::default(),
            warmups,
            scale_ups: 0,
            scale_downs: 0,
            peak_committed: cfg.min_replicas,
            jobs: default_jobs(),
            view: SlotView::default(),
        }
    }

    /// Sets how many worker threads slot event streams execute on between
    /// dispatch barriers (`0` restores the machine default:
    /// [`std::thread::available_parallelism`]). With `1`, everything runs
    /// on the calling thread. Like
    /// [`FleetSim::with_jobs`](crate::fleet::FleetSim::with_jobs), the
    /// job count never changes results.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = if jobs == 0 { default_jobs() } else { jobs };
        self
    }

    /// The slot table, in slot order.
    pub fn slots(&self) -> &[ServingSim<B>] {
        &self.slots
    }

    /// The tenant table.
    pub fn tenants(&self) -> &[TenantClass] {
        &self.tenants
    }

    /// The route policy's name.
    pub fn route_name(&self) -> &'static str {
        self.route.name()
    }

    /// The autoscale policy's name.
    pub fn autoscale_name(&self) -> &'static str {
        self.autoscale.name()
    }

    /// Requests submitted but not yet run.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Queues one request for its tenant.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidShape`] for a zero `output_len` or an
    /// out-of-range tenant index, and [`SimError::DuplicateRequest`] for
    /// a duplicate id.
    pub fn submit(&mut self, oreq: OrchRequest) -> Result<(), SimError> {
        let id = RequestId::new(oreq.req.id);
        if oreq.req.output_len == 0 {
            return Err(SimError::InvalidShape(format!(
                "request {id} has zero output_len"
            )));
        }
        let tenant = u32::try_from(oreq.tenant).ok();
        let Some(tenant) = tenant.filter(|_| oreq.tenant < self.tenants.len()) else {
            return Err(SimError::InvalidShape(format!(
                "request {id} names tenant {}, but the orchestrator has {}",
                oreq.tenant,
                self.tenants.len()
            )));
        };
        match self.tenant_of.entry(id) {
            Entry::Occupied(_) => return Err(SimError::DuplicateRequest(id)),
            Entry::Vacant(v) => v.insert(tenant),
        };
        self.submitted[oreq.tenant] += 1;
        self.pending.push(oreq);
        Ok(())
    }

    /// Slot `i`'s live snapshot.
    fn snapshot(&self, i: usize) -> ReplicaSnapshot {
        ReplicaSnapshot::of(i, &self.slots[i], self.profiles[i])
    }

    /// The [`SlotView`] recomputed from a full walk of the slot table.
    fn walk(&self) -> SlotView {
        let mut view = SlotView::default();
        for (i, &state) in self.state.iter().enumerate() {
            view.enter(state, self.snapshot(i));
        }
        view
    }

    /// Moves slot `i` to `to`, keeping the view in step.
    fn set_state(&mut self, i: usize, to: SlotState) {
        let from = std::mem::replace(&mut self.state[i], to);
        self.view.leave(i, from);
        self.view.enter(to, self.snapshot(i));
    }

    /// Re-reads slot `i`'s candidate entry, if it is On.
    fn refresh(&mut self, i: usize) {
        if self.state[i] != SlotState::On {
            return;
        }
        let snap = self.snapshot(i);
        let v = &mut self.view;
        let pos = v.pos(i);
        v.on_queue = v.on_queue - v.cands[pos].queue_len() + snap.queue_len();
        v.cands[pos] = snap;
    }

    /// Closes slot `i`'s cost window at `t` and parks it.
    fn park(&mut self, i: usize, t: Cycle) {
        self.set_state(i, SlotState::Off);
        self.stats[i].cycles_on += t.saturating_sub(self.on_since[i]);
        if let Some(w) = self.stats[i].windows.last_mut() {
            w.1 = t;
        }
        self.scale_downs += 1;
    }

    /// Parks slot `i` at `t` if it is draining and its queue is empty.
    fn park_if_drained(&mut self, i: usize, t: Cycle) {
        if self.state[i] == SlotState::Draining && self.slots[i].is_idle() {
            self.park(i, t);
        }
    }

    /// Commits parked slot `i` at `t`, paying `warm` cycles of warmup
    /// (none: dispatchable at once).
    fn spin_up(&mut self, i: usize, t: Cycle, warm: Cycle, merge: &mut EventQueue<SimEvent>) {
        self.on_since[i] = t;
        self.scale_ups += 1;
        if warm == 0 {
            self.set_state(i, SlotState::On);
            self.stats[i].windows.push((t, Cycle::MAX));
        } else {
            self.set_state(i, SlotState::Warming { ready_at: t + warm });
            merge.push(t + warm, SimEvent::ReplicaWarmup(i));
            self.warmups += 1;
        }
    }

    fn finish_warmup(&mut self, i: usize, ready_at: Cycle) {
        if let SlotState::Warming { .. } = self.state[i] {
            self.set_state(i, SlotState::On);
            self.stats[i].windows.push((ready_at, Cycle::MAX));
        }
    }

    /// Dispatches every queued request in arrival order and drains the
    /// fleet, reporting the aggregated per-tenant outcome.
    ///
    /// Slot event streams are merged on an [`EventQueue`] keyed by local
    /// clocks; each arrival is a barrier advancing exactly the slots whose
    /// streams trail it, and the drain phase runs every remaining stream
    /// to completion in parallel. [`SimEvent::ReplicaWarmup`] entries
    /// mark committed slots becoming dispatchable, the autoscaler is
    /// consulted at every arrival, and admission may shed or defer the
    /// request before the router sees it.
    ///
    /// Statistics are cumulative across `submit` + `run` rounds, like the
    /// fleet's. Slot cost windows ([`SlotStats::windows`]) are reported
    /// for the whole orchestrator lifetime.
    ///
    /// # Errors
    ///
    /// Propagates slot simulation errors, and returns
    /// [`SimError::Scheduling`] when the route policy picks past the
    /// candidates it was offered. A failed round leaves the failing
    /// arrival and every later one pending ([`Self::pending_len`]; a
    /// deferred one at its deferred time), dispatched requests on their
    /// slots for the next `run`, and every admission label given: per
    /// tenant, `admitted + deferred + shed` plus the never-deferred
    /// pending requests equals `submitted`. Slots keep the clocks and
    /// lifecycle states the failure found them in.
    pub fn run(&mut self) -> Result<OrchestratorOutcome, SimError> {
        let fleet = self.serve()?;

        // Close the cost accounting at the run's end: committed slots are
        // charged to the makespan — capacity held idle is still paid for.
        let end = fleet.makespan;
        for i in 0..self.slots.len() {
            if self.state[i] != SlotState::Off {
                let since = self.on_since[i];
                self.stats[i].cycles_on += end.max(since) - since;
                self.on_since[i] = end.max(since);
            }
        }

        let tenants = self.tenant_outcomes(&fleet);
        let replica_cycles_on = self.stats.iter().map(|s| s.cycles_on).sum();
        Ok(OrchestratorOutcome {
            tenants,
            slots: self.stats.clone(),
            replica_cycles_on,
            warmups: self.warmups,
            scale_ups: self.scale_ups,
            scale_downs: self.scale_downs,
            peak_replicas: self.peak_committed,
            shed: self.shed.iter().sum(),
            deferred: self.deferred.iter().sum(),
            fleet,
        })
    }

    /// The one arrival/barrier loop, behind [`Self::run`] and
    /// [`FleetSim::run`](crate::fleet::FleetSim::run): dispatches every
    /// pending request, drains every slot, and aggregates the fleet
    /// outcome over the requests dispatched so far.
    pub(crate) fn serve(&mut self) -> Result<FleetOutcome, SimError> {
        let mut pending = std::mem::take(&mut self.pending);
        pending.sort_by_key(|r| (r.req.arrival, r.req.id));
        let mut arrivals = Arrivals {
            sorted: pending.into_iter(),
            requeued: EventQueue::new(),
        };

        // A busy slot is keyed in the merge at its wake when a capped wait
        // left one (nothing happens on it before then), else at its clock.
        // `keys` holds each slot's live key; an entry at another time is
        // stale and skipped when popped.
        let mut merge: EventQueue<SimEvent> = EventQueue::new();
        let mut keys: Vec<Option<Cycle>> = vec![None; self.slots.len()];
        for (i, r) in self.slots.iter().enumerate() {
            match self.state[i] {
                SlotState::On | SlotState::Draining if !r.is_idle() => {
                    key_slot(&mut merge, &mut keys, i, r.wake().unwrap_or(r.now()));
                }
                SlotState::Warming { ready_at } => merge.push(ready_at, SimEvent::ReplicaWarmup(i)),
                _ => {}
            }
        }
        // A failed round may have advanced slots without refreshing their
        // snapshots, so each run starts the view from a full walk.
        self.view = self.walk();
        let mut recent: VecDeque<Cycle> = VecDeque::with_capacity(RATE_WINDOW);

        let mut due: Vec<usize> = Vec::new();
        let mut first_barrier = true;
        while let Some((t, oreq)) = arrivals.pop() {
            // Dispatch barrier: advance exactly the dispatchable slots
            // whose streams trail the arrival. Warmups are inclusive at
            // `t` (capacity committed for this instant is usable at it);
            // replica streams are strictly in the past.
            due.clear();
            while let Some((at, ev)) = merge.peek() {
                let take = at < t || (at == t && matches!(ev, SimEvent::ReplicaWarmup(_)));
                if !take {
                    break;
                }
                let (at, ev) = merge.pop().expect("peeked");
                match ev {
                    SimEvent::ReplicaIdle(i) if keys[i].take_if(|k| *k == at).is_some() => {
                        due.push(i);
                    }
                    SimEvent::ReplicaIdle(_) => {}
                    SimEvent::ReplicaWarmup(i) => {
                        self.finish_warmup(i, at);
                        self.refresh(i);
                    }
                    other => unreachable!("unexpected merge event {other:?}"),
                }
            }
            due.sort_unstable();
            debug_assert!(
                self.slots.iter().enumerate().all(|(i, r)| {
                    r.is_idle() || due.binary_search(&i).is_ok() || r.wake().unwrap_or(r.now()) >= t
                }),
                "a busy slot left out of the barrier at {t} wakes before it"
            );
            if let Err(e) = advance_set(&mut self.slots, &due, t, self.jobs) {
                self.restash(oreq, &mut arrivals);
                return Err(e);
            }
            for &i in &due {
                let r = &self.slots[i];
                if !r.is_idle() {
                    key_slot(&mut merge, &mut keys, i, r.wake().unwrap_or(r.now()));
                }
                self.refresh(i);
            }
            debug_assert!(self.view == self.walk(), "the slot view drifted");

            // A condemned slot parks the moment its queue drains; its
            // cost window closes at this decision instant. A slot is
            // condemned busy, so only one this barrier advanced can have
            // drained, except at a round's first barrier: an earlier
            // round's drain phase, or a failed round, may have left a
            // draining slot idle.
            let sweep_all = std::mem::replace(&mut first_barrier, false);
            if self.view.draining > 0 {
                if sweep_all {
                    for i in 0..self.slots.len() {
                        self.park_if_drained(i, t);
                    }
                } else {
                    for &i in &due {
                        self.park_if_drained(i, t);
                    }
                }
            }
            debug_assert!(
                (self.state.iter().zip(&self.slots))
                    .all(|(s, r)| *s != SlotState::Draining || !r.is_idle()),
                "a draining slot is idle after the barrier at {t}"
            );

            // Autoscale: decide the committed count for this instant.
            recent.push_back(t);
            if recent.len() > RATE_WINDOW {
                recent.pop_front();
            }
            let span = recent.back().unwrap() - recent.front().unwrap();
            let arrival_rate = if recent.len() >= 2 && span > 0 {
                (recent.len() - 1) as f64 * 1e6 / span as f64
            } else {
                0.0
            };
            let active = self.view.cands.len();
            let warming = self.view.warming;
            let obs = AutoscaleObservation {
                now: t,
                active,
                warming,
                queue: self.view.on_queue,
                arrival_rate,
                min_replicas: self.cfg.min_replicas,
                max_replicas: self.cfg.max_replicas,
            };
            let desired = self
                .autoscale
                .desired(&obs)
                .clamp(self.cfg.min_replicas, self.cfg.max_replicas);
            let committed = active + warming;
            if desired > committed {
                let mut need = desired - committed;
                // A draining slot is still warm: cancelling its drain is
                // free, so resurrect those before paying warmup on a
                // parked slot.
                for i in 0..self.slots.len() {
                    if need == 0 || self.view.draining == 0 {
                        break;
                    }
                    if self.state[i] == SlotState::Draining {
                        self.set_state(i, SlotState::On);
                        need -= 1;
                    }
                }
                for i in 0..self.slots.len() {
                    if need == 0 {
                        break;
                    }
                    if self.state[i] == SlotState::Off {
                        need -= 1;
                        self.spin_up(i, t, self.profiles[i].warmup_cycles, &mut merge);
                    }
                }
            } else if desired < committed {
                // Idle slots park immediately; busy ones are condemned to
                // drain — no new work, park on empty. Highest On slot
                // first (the candidate list's tail), so the low slots
                // stay the stable core. Draining slots no longer count as
                // committed, which is what lets a demand rebound cancel
                // the drain above.
                for _ in desired..committed {
                    let Some(i) = self.view.cands.last().map(|c| c.index) else {
                        break;
                    };
                    if self.slots[i].is_idle() {
                        self.park(i, t);
                    } else {
                        self.set_state(i, SlotState::Draining);
                    }
                }
            }
            self.peak_committed = self
                .peak_committed
                .max(self.view.cands.len() + self.view.warming + self.view.draining);

            // Admission: high-priority tenants bypass; low-priority ones
            // are deferred (once) or shed when dispatchable-fleet KV
            // pressure predicts admitted goodput would degrade.
            let id = RequestId::new(oreq.req.id);
            let bumped = self.defer_delay.contains_key(&id);
            if self.tenants[oreq.tenant].priority < self.cfg.admission.priority_floor && !bumped {
                // Summed over the On slots in slot order, as ever, so the
                // mean is bit-stable.
                let cands = &self.view.cands;
                let pressure = if cands.is_empty() {
                    0.0
                } else {
                    cands.iter().map(|c| c.kv_pressure).sum::<f64>() / cands.len() as f64
                };
                if pressure >= self.cfg.admission.shed_pressure {
                    self.shed[oreq.tenant] += 1;
                    continue;
                }
                if pressure >= self.cfg.admission.defer_pressure {
                    let delay = self.cfg.admission.defer_cycles.max(1);
                    self.defer_delay.insert(id, delay);
                    self.deferred[oreq.tenant] += 1;
                    arrivals.defer(oreq, t + delay);
                    continue;
                }
            }

            // Routing: only warmed-up slots are candidates. With none, a
            // draining slot can serve right now — cancel one drain rather
            // than defer the request behind a warmup.
            if self.view.cands.is_empty() && self.view.draining > 0 {
                let i = self
                    .state
                    .iter()
                    .position(|s| *s == SlotState::Draining)
                    .expect("a slot is draining");
                self.set_state(i, SlotState::On);
            }
            if self.view.cands.is_empty() {
                // No dispatchable capacity: wait for the earliest warmup
                // (forcing a spin-up if nothing is even warming). The
                // request is delayed, never lost.
                let ready = self
                    .state
                    .iter()
                    .filter_map(|s| match s {
                        SlotState::Warming { ready_at } => Some(*ready_at),
                        _ => None,
                    })
                    .min();
                let ready = match ready {
                    Some(r) => r,
                    None => {
                        // min_replicas >= 1 guarantees an Off slot here.
                        let i = self
                            .state
                            .iter()
                            .position(|s| *s == SlotState::Off)
                            .expect("an empty committed set implies a parked slot");
                        let warm = self.profiles[i].warmup_cycles.max(1);
                        self.spin_up(i, t, warm, &mut merge);
                        t + warm
                    }
                };
                let delay = ready.max(t + 1) - t;
                if !bumped {
                    self.deferred[oreq.tenant] += 1;
                }
                *self.defer_delay.entry(id).or_insert(0) += delay;
                arrivals.defer(oreq, t + delay);
                continue;
            }
            let cands = &self.view.cands;
            let pos = self
                .route
                .route(cands, &oreq.req, &self.tenants[oreq.tenant]);
            let offered = cands.len();
            if pos >= offered {
                self.restash(oreq, &mut arrivals);
                return Err(out_of_range(self.route.name(), pos, offered));
            }
            let g = cands[pos].index;
            // A waiting slot was left out of the barrier, since nothing
            // happens on it before its wake: one O(1) step brings it to
            // the dispatch instant, as the barrier would have. It, or a
            // drained slot, goes back into the merge at its clock.
            let waiting = self.slots[g].wake().is_some();
            let rekey = waiting || self.slots[g].is_idle();
            let slot = &mut self.slots[g];
            let submitted = if waiting { advance_to(slot, t) } else { Ok(()) }.and_then(|()| {
                slot.submit(oreq.req.id, oreq.req.input_len, oreq.req.output_len, t)
            });
            if let Err(e) = submitted {
                self.restash(oreq, &mut arrivals);
                return Err(e);
            }
            self.dispatched += 1;
            self.stats[g].served += 1;
            if !bumped {
                self.admitted[oreq.tenant] += 1;
            }
            self.refresh(g);
            if rekey {
                key_slot(&mut merge, &mut keys, g, self.slots[g].now());
            }
        }

        // Every arrival is dispatched: free the sorted buffer before the
        // drain phase and the aggregation, which both outlive it.
        drop(arrivals);

        // Drain phase: no more barriers, so every remaining stream runs
        // to completion — fully parallel.
        let mut active: Vec<usize> = Vec::new();
        while let Some((at, ev)) = merge.pop() {
            match ev {
                SimEvent::ReplicaIdle(i) if keys[i].take_if(|k| *k == at).is_some() => {
                    active.push(i);
                }
                SimEvent::ReplicaIdle(_) => {}
                SimEvent::ReplicaWarmup(i) => self.finish_warmup(i, at),
                other => unreachable!("unexpected merge event {other:?}"),
            }
        }
        active.sort_unstable();
        advance_set(&mut self.slots, &active, Cycle::MAX, self.jobs)?;

        let outcomes: Vec<ServingOutcome> = self.slots.iter().map(ServingSim::outcome).collect();
        Ok(FleetOutcome::aggregate(self.dispatched, outcomes))
    }

    /// Re-stashes an in-flight arrival plus everything still queued, so a
    /// failed round keeps conservation at the request level.
    fn restash(&mut self, current: OrchRequest, arrivals: &mut Arrivals) {
        self.pending.push(current);
        while let Some((_, r)) = arrivals.pop() {
            self.pending.push(r);
        }
    }

    fn tenant_outcomes(&self, fleet: &FleetOutcome) -> Vec<TenantOutcome> {
        let mut outs: Vec<TenantOutcome> = self
            .tenants
            .iter()
            .enumerate()
            .map(|(i, t)| TenantOutcome {
                name: t.name.clone(),
                priority: t.priority,
                submitted: self.submitted[i],
                admitted: self.admitted[i],
                deferred: self.deferred[i],
                shed: self.shed[i],
                ..Default::default()
            })
            .collect();
        for r in &fleet.replicas {
            for rec in r.records.iter() {
                let Some(tenant) = self.tenant_of.get(&rec.id).map(|&t| t as usize) else {
                    continue;
                };
                let delay = self.defer_delay.get(&rec.id).copied().unwrap_or(0);
                let ttft = rec.ttft + delay;
                let latency = rec.latency + delay;
                let tpot = rec.tpot();
                let t = &mut outs[tenant];
                t.completed += 1;
                t.tokens += rec.tokens;
                t.ttfts.push(ttft);
                t.tpots.push(tpot);
                t.latencies.push(latency);
                let slo = &self.tenants[tenant].slo;
                if ttft <= slo.ttft && tpot <= slo.tpot {
                    t.slo_attained += 1;
                    t.goodput_tokens += rec.tokens;
                }
            }
        }
        for t in &mut outs {
            let dispatched = t.admitted + t.deferred;
            t.dropped = dispatched.saturating_sub(t.completed);
            t.ttfts.sort_unstable();
            t.latencies.sort_unstable();
            t.tpots.sort_by(f64::total_cmp);
        }
        outs
    }
}

/// Keys busy slot `i` in the merge at `at`; an older entry of the slot
/// becomes stale.
fn key_slot(merge: &mut EventQueue<SimEvent>, keys: &mut [Option<Cycle>], i: usize, at: Cycle) {
    keys[i] = Some(at);
    merge.push(at, SimEvent::ReplicaIdle(i));
}

/// Rejects an empty slot table and a slot with `target_completions > 0`:
/// one that stops early would strand its queued requests, so every slot
/// must drain. `owner` and `unit` name the table and its slots.
pub(crate) fn check_slots<B: Backend>(
    slots: &[ServingSim<B>],
    owner: &str,
    unit: &str,
) -> Result<(), BackendError> {
    let problem = match slots.iter().position(|r| r.config().target_completions > 0) {
        _ if slots.is_empty() => format!("{owner} needs at least one {unit}"),
        Some(i) => format!(
            "{owner} {unit} {i} has target_completions > 0; {unit}s must drain \
             (set target_completions to 0)"
        ),
        None => return Ok(()),
    };
    Err(BackendError::InvalidSimulation(problem))
}

/// One worker per available core by default (the dispatcher thread mostly
/// waits at barriers).
fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BackendCaps, GpuRooflineBackend};
    use crate::fleet::{JoinShortestQueue, KvLeastLoaded, RoundRobin};
    use crate::testsupport::{cfg_of, gpu_replicas, idle_snapshot};
    use neupims_types::LlmConfig;

    fn loose_slo() -> SloTargets {
        SloTargets {
            ttft: Cycle::MAX,
            tpot: f64::INFINITY,
        }
    }

    fn one_tenant() -> Vec<TenantClass> {
        vec![TenantClass::new("only", loose_slo(), 200, 1.0)]
    }

    /// `n` GPU slots serving one tenant through JSQ under `autoscale`.
    fn jsq_over(
        n: usize,
        autoscale: Box<dyn AutoscalePolicy>,
        cfg: OrchestratorConfig,
    ) -> Result<Orchestrator<GpuRooflineBackend>, BackendError> {
        let route = Box::new(LoadOnly::new(Box::new(JoinShortestQueue)));
        Orchestrator::new(gpu_replicas(n), one_tenant(), route, autoscale, cfg)
    }

    fn orch(n: usize) -> Orchestrator<GpuRooflineBackend> {
        jsq_over(
            n,
            Box::new(StaticScale::full()),
            OrchestratorConfig::default_for(n),
        )
        .unwrap()
    }

    #[test]
    fn arrivals_pop_in_one_event_queue_order() {
        // At equal times the originally pending request goes first, then
        // the re-queued ones in the order they were deferred.
        let sorted = vec![shaped(0, 10, 4), shaped(1, 20, 4)].into_iter();
        let requeued = EventQueue::new();
        let mut a = Arrivals { sorted, requeued };
        for (id, at) in [(2, 10), (3, 5), (4, 10)] {
            a.defer(shaped(id, 0, 4), at);
        }
        let order: Vec<u32> = std::iter::from_fn(|| a.pop())
            .map(|(_, r)| r.req.id)
            .collect();
        assert_eq!(order, [3, 0, 2, 4, 1]);
    }

    #[test]
    fn rejects_bad_configurations() {
        let build = |n, cfg| jsq_over(n, Box::new(StaticScale::full()), cfg);
        assert!(build(0, OrchestratorConfig::default_for(0)).is_err());
        assert!(Orchestrator::new(
            gpu_replicas(2),
            Vec::new(),
            Box::new(CapabilityAware::default()),
            Box::new(StaticScale::full()),
            OrchestratorConfig::default_for(2),
        )
        .is_err());
        let mut cfg = OrchestratorConfig::default_for(2);
        cfg.max_replicas = 3;
        assert!(build(2, cfg).is_err());
        let mut cfg = OrchestratorConfig::default_for(2);
        cfg.min_replicas = 0;
        assert!(build(2, cfg).is_err());
    }

    #[test]
    fn submit_validates_requests() {
        let mut o = orch(2);
        o.submit(shaped(1, 0, 4)).unwrap();
        assert!(matches!(
            o.submit(shaped(1, 0, 4)),
            Err(SimError::DuplicateRequest(_))
        ));
        let mut zero = shaped(2, 0, 4);
        zero.req.output_len = 0;
        assert!(matches!(o.submit(zero), Err(SimError::InvalidShape(_))));
        let mut bad_tenant = shaped(3, 0, 4);
        bad_tenant.tenant = 9;
        assert!(matches!(
            o.submit(bad_tenant),
            Err(SimError::InvalidShape(_))
        ));
    }

    #[test]
    fn degenerate_run_serves_everything() {
        let mut o = orch(2);
        for i in 0..12 {
            o.submit(shaped(i, i as u64 * 5_000, 4)).unwrap();
        }
        let out = o.run().unwrap();
        assert_eq!(out.fleet.submitted, 12);
        assert_eq!(out.fleet.completed, 12);
        assert_eq!(out.tenants[0].admitted, 12);
        assert_eq!(out.tenants[0].deferred, 0);
        assert_eq!(out.tenants[0].shed, 0);
        assert_eq!(out.tenants[0].completed, 12);
        assert!(out.goodput_per_cost() > 0.0);
        // Static full fleet: both slots charged to the makespan.
        assert_eq!(out.replica_cycles_on, 2 * out.fleet.makespan);
        assert_eq!(out.peak_replicas, 2);
        assert_eq!(out.warmups, 0);
    }

    #[test]
    fn cold_start_pays_warmup_before_first_dispatch() {
        let mut cfg = OrchestratorConfig::default_for(1);
        cfg.warm_start = false;
        let mut o = jsq_over(1, Box::new(StaticScale::full()), cfg).unwrap();
        o.submit(shaped(0, 0, 4)).unwrap();
        let out = o.run().unwrap();
        let warm = CapabilityProfile::for_caps(GpuRooflineBackend::a100().caps()).warmup_cycles;
        assert_eq!(out.warmups, 1);
        assert_eq!(out.tenants[0].deferred, 1, "the arrival waited for warmup");
        assert_eq!(out.tenants[0].admitted, 0);
        assert_eq!(out.fleet.completed, 1);
        // TTFT is measured from the true arrival: it includes the warmup
        // wait the request paid before dispatch.
        assert!(
            out.tenants[0].ttfts[0] >= warm,
            "ttft {} must include the {warm}-cycle warmup wait",
            out.tenants[0].ttfts[0]
        );
        let first_window = out.slots[0].windows[0];
        assert_eq!(first_window.0, warm);
    }

    /// One tiny slot, very tight admission thresholds, and a burst of
    /// near-simultaneous arrivals from two tenants: the first request
    /// lands, then pressure exceeds the thresholds and low-priority
    /// ("batch") traffic is deferred or shed; "premium" bypasses
    /// admission.
    fn under_pressure(route: Box<dyn RoutePolicy>) -> Orchestrator<GpuRooflineBackend> {
        let mut cfg = OrchestratorConfig::default_for(1);
        cfg.admission = AdmissionConfig {
            priority_floor: 100,
            defer_pressure: 0.0001,
            shed_pressure: 0.001,
            defer_cycles: 1_000,
        };
        let tenants = vec![
            TenantClass::new("premium", loose_slo(), 200, 0.5),
            TenantClass::new("batch", loose_slo(), 10, 0.5),
        ];
        let slot = ServingSim::new(GpuRooflineBackend::a100(), LlmConfig::gpt3_7b(), cfg_of(2));
        let mut o = Orchestrator::new(
            vec![slot],
            tenants,
            route,
            Box::new(StaticScale::full()),
            cfg,
        )
        .unwrap();
        for i in 0..30u32 {
            let req = FleetRequest {
                id: i,
                input_len: 512,
                output_len: 16,
                arrival: u64::from(i) * 100,
            };
            o.submit(OrchRequest {
                req,
                tenant: (i % 2) as usize,
            })
            .unwrap();
        }
        o
    }

    fn assert_labels_conserve(out: &OrchestratorOutcome) {
        for t in &out.tenants {
            let labelled = t.admitted + t.deferred + t.shed;
            assert_eq!(labelled, t.submitted, "conservation for {}", t.name);
        }
    }

    #[test]
    fn low_priority_is_shed_under_pressure_and_conservation_holds() {
        let mut o = under_pressure(Box::new(LoadOnly::new(Box::new(JoinShortestQueue))));
        let out = o.run().unwrap();
        assert_labels_conserve(&out);
        assert_eq!(out.tenants[0].shed, 0, "premium bypasses admission");
        assert!(
            out.tenants[1].deferred + out.tenants[1].shed > 0,
            "batch traffic must feel the pressure"
        );
    }

    #[test]
    fn failed_round_keeps_every_request_labelled_or_pending() {
        // Routes to the only slot, except an out-of-range choice at the
        // sixth routed arrival.
        struct BreaksAtSixth(usize);
        impl RoutePolicy for BreaksAtSixth {
            fn name(&self) -> &'static str {
                "breaks-at-sixth"
            }
            fn route(&mut self, c: &[RouteCandidate], _: &FleetRequest, _: &TenantClass) -> usize {
                self.0 += 1;
                if self.0 == 6 {
                    c.len()
                } else {
                    0
                }
            }
        }
        let mut o = under_pressure(Box::new(BreaksAtSixth(0)));
        let err = o.run().unwrap_err().to_string();
        assert!(
            err.contains(
                "policy \"breaks-at-sixth\" chose position 1, but the offered slot count is 1"
            ),
            "{err}"
        );
        assert_eq!(o.dispatched, 5, "the five routed arrivals stay dispatched");
        let shed: u64 = o.shed.iter().sum();
        assert_eq!(o.pending_len() as u64, 30 - 5 - shed);
        assert!(o.deferred[1] + o.shed[1] > 0, "admission acted first");
        for t in 0..2 {
            let unlabelled = o.pending.iter().filter(|r| {
                r.tenant == t && !o.defer_delay.contains_key(&RequestId::new(r.req.id))
            });
            assert_eq!(
                o.admitted[t] + o.deferred[t] + o.shed[t] + unlabelled.count() as u64,
                o.submitted[t],
                "tenant {t}: a failed round lost or double-counted a request"
            );
        }
        // The next round serves everything left; no label is repeated.
        let out = o.run().unwrap();
        assert_eq!(o.pending_len(), 0);
        assert_labels_conserve(&out);
        assert_eq!(out.fleet.completed + out.fleet.dropped, out.fleet.submitted);
    }

    #[test]
    fn capability_router_sends_long_context_to_pim() {
        let mut r = CapabilityAware::default();
        let pim_caps = BackendCaps {
            uses_npu: true,
            uses_pim: true,
            dual_row_buffer: true,
            batched_mha: true,
        };
        let gpu_caps = BackendCaps {
            uses_npu: true,
            uses_pim: false,
            dual_row_buffer: false,
            batched_mha: true,
        };
        let cands = vec![idle_snapshot(0, gpu_caps), idle_snapshot(1, pim_caps)];
        let tenant = TenantClass::new("t", loose_slo(), 100, 1.0);
        let long = FleetRequest {
            id: 0,
            input_len: 3000,
            output_len: 64,
            arrival: 0,
        };
        assert_eq!(r.route(&cands, &long, &tenant), 1, "long context -> PIM");
        let short = FleetRequest {
            id: 1,
            input_len: 64,
            output_len: 8,
            arrival: 0,
        };
        assert_eq!(r.route(&cands, &short, &tenant), 0, "short chat -> GPU");
    }

    #[test]
    fn load_only_round_robin_rotates_over_candidates() {
        let mut r = LoadOnly::new(Box::new(RoundRobin::default()));
        // Candidates are slots 3 and 7: positions must still be 0, 1, 0.
        let caps = GpuRooflineBackend::a100().caps();
        let cands = vec![idle_snapshot(3, caps), idle_snapshot(7, caps)];
        let tenant = TenantClass::new("t", loose_slo(), 100, 1.0);
        let req = FleetRequest {
            id: 0,
            input_len: 8,
            output_len: 1,
            arrival: 0,
        };
        assert_eq!(r.route(&cands, &req, &tenant), 0);
        assert_eq!(r.route(&cands, &req, &tenant), 1);
        assert_eq!(r.route(&cands, &req, &tenant), 0);
    }

    #[test]
    fn classic_policies_answer_positions_over_candidates() {
        // Candidates are slots 3 and 7. A loaded slot 3 sends the request
        // to slot 7, position 1; on a tie the lower slot, 3, wins at
        // position 0.
        let caps = GpuRooflineBackend::a100().caps();
        let loaded = ReplicaSnapshot {
            waiting: 2,
            outstanding_tokens: 40,
            kv_pressure: 0.5,
            ..idle_snapshot(3, caps)
        };
        let tenant = TenantClass::new("t", loose_slo(), 100, 1.0);
        let req = shaped(0, 0, 1).req;
        for (slot3, want) in [(loaded, 1), (idle_snapshot(3, caps), 0)] {
            let cands = [slot3, idle_snapshot(7, caps)];
            assert_eq!(JoinShortestQueue.choose(&cands, &req), want);
            assert_eq!(KvLeastLoaded.choose(&cands, &req), want);
            let policies: [Box<dyn DispatchPolicy>; 2] =
                [Box::new(JoinShortestQueue), Box::new(KvLeastLoaded)];
            for inner in policies {
                assert_eq!(LoadOnly::new(inner).route(&cands, &req, &tenant), want);
            }
        }
    }

    #[test]
    fn reactive_scaler_tracks_queue_and_static_holds() {
        let mut rq = ReactiveQueueDepth::default();
        let obs = |queue| AutoscaleObservation {
            now: 0,
            active: 4,
            warming: 0,
            queue,
            arrival_rate: 0.0,
            min_replicas: 1,
            max_replicas: 16,
        };
        assert_eq!(rq.desired(&obs(0)), 1, "empty queue -> floor");
        assert_eq!(rq.desired(&obs(9)), 3, "ceil(9/4)");
        let mut st = StaticScale { replicas: 5 };
        assert_eq!(st.desired(&obs(0)), 5);
    }

    #[test]
    fn predictive_scaler_leads_a_rising_rate() {
        let mut p = EwmaPredictive::new(1.0);
        let obs = |rate: f64| AutoscaleObservation {
            now: 0,
            active: 1,
            warming: 0,
            queue: 0,
            arrival_rate: rate,
            min_replicas: 1,
            max_replicas: 64,
        };
        // Feed a steadily rising rate; the trend term must push the
        // desired count past the naive level-only answer.
        let mut last = 0;
        for step in 0..40 {
            last = p.desired(&obs(1.0 + step as f64 * 0.25));
        }
        let measured_only = (1.0 + 39.0 * 0.25_f64).ceil() as usize;
        assert!(
            last > measured_only,
            "predictive {last} must lead the measured rate {measured_only}"
        );
    }

    #[test]
    fn registries_resolve_names() {
        for name in AUTOSCALE_NAMES {
            assert_eq!(autoscale_from_name(name).unwrap().name(), name);
        }
        assert!(autoscale_from_name("chaotic").is_err());
        // The load-only routers report the dispatch policy they wrap.
        for (name, reported) in ROUTER_NAMES
            .iter()
            .zip(["jsq", "round-robin", "capability"])
        {
            assert_eq!(router_from_name(name).unwrap().name(), reported);
        }
        assert!(router_from_name("psychic").is_err());
    }

    #[test]
    fn autoscaled_run_scales_up_and_parks() {
        // Burst then silence: the reactive scaler must grow past the
        // floor during the burst and park back down after it.
        let mut cfg = OrchestratorConfig::default_for(4);
        cfg.min_replicas = 1;
        let reactive = ReactiveQueueDepth { target_queue: 1.0 };
        let mut o = jsq_over(4, Box::new(reactive), cfg).unwrap();
        for i in 0..24u32 {
            // 16 near-simultaneous arrivals, then a sparse tail.
            let arrival = if i < 16 {
                i as u64
            } else {
                400_000_000 + (i as u64 - 16) * 50_000_000
            };
            o.submit(shaped(i, arrival, 4)).unwrap();
        }
        let out = o.run().unwrap();
        assert_eq!(out.fleet.completed + out.fleet.dropped, 24);
        assert!(out.scale_ups > 0, "the burst must trigger scale-up");
        assert!(out.warmups > 0, "scale-up must pay warmup");
        assert!(out.scale_downs > 0, "the quiet tail must park replicas");
        assert!(out.peak_replicas > 1);
        assert!(
            out.replica_cycles_on < 4 * out.fleet.makespan,
            "autoscaling must cost less than the static-4 envelope"
        );
        // Served work only ever landed inside dispatchability windows.
        for (slot, r) in out.slots.iter().zip(&out.fleet.replicas) {
            for rec in r.records.iter() {
                assert!(
                    slot.windows
                        .iter()
                        .any(|&(lo, hi)| rec.arrival >= lo && rec.arrival < hi),
                    "slot {} served a request outside its windows",
                    slot.index
                );
            }
        }
    }

    fn shaped(id: u32, arrival: Cycle, output_len: u32) -> OrchRequest {
        OrchRequest {
            req: FleetRequest {
                id,
                input_len: 32,
                output_len,
                arrival,
            },
            tenant: 0,
        }
    }

    /// Drives slot 1 into a scale-down while it still holds a
    /// long-running request: four short requests saturate slot 0 and pull
    /// slot 1 up, one long request lands on slot 1, and then the backlog
    /// empties so the reactive scaler asks for one replica again.
    fn drain_fixture() -> Orchestrator<GpuRooflineBackend> {
        let mut cfg = OrchestratorConfig::default_for(2);
        cfg.min_replicas = 1;
        cfg.warm_start = true;
        let reactive = ReactiveQueueDepth { target_queue: 2.0 };
        let mut o = jsq_over(2, Box::new(reactive), cfg).unwrap();
        for i in 0..4u32 {
            o.submit(shaped(i, i as u64, 32)).unwrap();
        }
        // Arrives after slot 1's warmup; JSQ sends it to the empty slot.
        o.submit(shaped(4, 2_100_000, 256)).unwrap();
        o
    }

    #[test]
    fn scale_down_drains_busy_slots_before_parking() {
        let mut o = drain_fixture();
        // Slot 0 has drained by now, so the backlog drops to slot 1's
        // lone long request and the scaler condemns slot 1 mid-flight.
        o.submit(shaped(5, 500_000_000, 4)).unwrap();
        o.submit(shaped(6, 520_000_000, 4)).unwrap();
        // Long past the long request's completion: the drained slot must
        // park at this barrier, not before (it was busy at the condemn).
        o.submit(shaped(7, 5_000_000_000, 4)).unwrap();
        let out = o.run().unwrap();
        assert_eq!(out.fleet.completed, 8);
        assert_eq!(out.warmups, 1, "only slot 1's original spin-up warms");
        assert!(out.scale_downs >= 1, "the drained slot must park");
        let slot1 = &out.slots[1];
        assert_eq!(
            slot1.windows.last().unwrap().1,
            5_000_000_000,
            "a busy slot drains first and parks at the next decision \
             after its queue empties"
        );
        // No new work after the condemn: slot 1 served only the long
        // request it was draining.
        let records = &out.fleet.replicas[1].records;
        assert_eq!(records.len(), 1);
        assert!(records.iter().all(|r| r.arrival < 500_000_000));
    }

    #[test]
    fn a_slot_a_round_left_draining_parks_at_the_next_rounds_first_arrival() {
        let mut o = drain_fixture();
        // Condemns slot 1 mid-flight; the round's drain phase then runs
        // it empty with no barrier left to park it at.
        o.submit(shaped(5, 500_000_000, 4)).unwrap();
        let first = o.run().unwrap();
        assert_eq!(first.scale_downs, 0);
        assert_eq!(first.slots[1].windows.last().unwrap().1, Cycle::MAX);
        assert_eq!(o.state[1], SlotState::Draining);
        assert!(o.slots[1].is_idle(), "the drain phase emptied slot 1");
        // Nothing advances slot 1 in the next round, so only a sweep at
        // its first barrier finds it idle.
        o.submit(shaped(6, 5_000_000_000, 4)).unwrap();
        let second = o.run().unwrap();
        assert_eq!(second.scale_downs, 1, "the drained slot must park");
        let slot1 = &second.slots[1];
        assert_eq!(slot1.windows.len(), 1);
        assert_eq!(slot1.windows[0].1, 5_000_000_000);
        // Paid from its spin-up to the park, across both rounds.
        let warm = CapabilityProfile::for_caps(GpuRooflineBackend::a100().caps()).warmup_cycles;
        assert_eq!(slot1.cycles_on, 5_000_000_000 - (slot1.windows[0].0 - warm));
        assert_eq!(second.fleet.replicas[1].records.len(), 1, "no new work");
    }

    #[test]
    fn demand_rebound_cancels_a_drain_for_free() {
        let mut o = drain_fixture();
        // Condemn slot 1 (still busy), then burst: the scaler's rebound
        // must resurrect the draining slot instead of paying warmup.
        o.submit(shaped(5, 500_000_000, 4)).unwrap();
        for i in 6..14u32 {
            o.submit(shaped(i, 510_000_000 + (i as u64 - 6), 4))
                .unwrap();
        }
        let out = o.run().unwrap();
        assert_eq!(out.fleet.completed, 14);
        assert_eq!(
            out.warmups, 1,
            "cancelling a drain is free; a second warmup means the slot \
             parked and was re-spun instead"
        );
        assert_eq!(out.scale_downs, 0, "the drain never completed");
        let slot1 = &out.slots[1];
        assert_eq!(slot1.windows.len(), 1, "slot 1 never parked");
        assert_eq!(slot1.windows[0].1, Cycle::MAX);
        // The resurrected slot picked up post-rebound work.
        assert!(out.fleet.replicas[1]
            .records
            .iter()
            .any(|r| r.arrival > 500_000_000));
    }
}
