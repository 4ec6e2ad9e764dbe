//! SLO-aware multi-replica fleet serving.
//!
//! The ROADMAP's north star is a production-scale system serving heavy
//! streaming traffic, and the paper's headline numbers are end-to-end
//! serving results — so the layer above one device matters: [`FleetSim`]
//! runs N replicas (each its own [`ServingSim`], heterogeneous backends
//! allowed) behind a pluggable [`DispatchPolicy`]. Arrivals are dispatched
//! in time order; each dispatch is a barrier where exactly the replicas
//! whose event streams trail the arrival are advanced up to it (popped
//! from a merged [`EventQueue`](crate::event::EventQueue), in parallel on
//! scoped worker threads when many are due — see [`FleetSim::with_jobs`]),
//! so policies see *live* queue depths, outstanding work, and KV pressure
//! rather than static assignment counts. Between barriers replicas share
//! no state, which is why the job count never changes results.
//!
//! That barrier loop is the [`Orchestrator`]'s: a `FleetSim` is the
//! engine with one tenant, every replica statically on, and its
//! dispatch policy routing through [`LoadOnly`]. The all-replica
//! lockstep engine survives as [`FleetSim::run_lockstep`], the
//! independent golden reference the parity tests hold [`FleetSim::run`]
//! to.
//!
//! Three policies ship out of the box:
//!
//! * [`RoundRobin`] — the classic blind baseline;
//! * [`JoinShortestQueue`] — fewest queued+running requests, ties broken
//!   by outstanding tokens (the serving-theory workhorse);
//! * [`KvLeastLoaded`] — lowest KV-cache page pressure, ties broken by
//!   outstanding tokens — the right signal when prompts are long and
//!   admission is capacity-bound.
//!
//! [`FleetOutcome`] aggregates every replica's [`ServingOutcome`]:
//! fleet-wide TTFT/TPOT/latency percentiles, SLO attainment, goodput,
//! drops, preemption/restore counts (each replica's KV-pressure policy
//! is [`ServingSim::with_preemption`]), NPU/PIM overlap accounting, and
//! makespan throughput.
//!
//! Replicas are plain [`ServingSim`]s, so each may carry its own
//! [`SchedulerPolicy`](crate::scheduler::SchedulerPolicy) (built via
//! [`ServingSim::with_scheduler`]): a fleet can mix, say, lump-prefill
//! GPU replicas with sub-batch-interleaved NeuPIMs replicas, and the CLI's
//! `fleet --scheduler` flag cycles a comma-separated list the same way
//! `--backend` does.
//!
//! # Example
//!
//! ```
//! use neupims_core::backend::GpuRooflineBackend;
//! use neupims_core::fleet::{FleetRequest, FleetSim, JoinShortestQueue};
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
//! let replicas: Vec<_> = (0..2)
//!     .map(|_| ServingSim::new(GpuRooflineBackend::a100(), LlmConfig::gpt3_7b(), cfg.clone()))
//!     .collect();
//! let mut fleet = FleetSim::new(replicas, Box::new(JoinShortestQueue)).unwrap();
//! for i in 0..6 {
//!     fleet
//!         .submit(FleetRequest { id: i, input_len: 64, output_len: 2, arrival: 0 })
//!         .unwrap();
//! }
//! let out = fleet.run().unwrap();
//! assert_eq!(out.completed, 6);
//! assert_eq!(out.completed + out.dropped, out.submitted);
//! ```

use std::sync::Mutex;

use neupims_sched::{total_order_bits, TraceMemo, TraceSnapshot};
use neupims_types::{Cycle, SimError};

use crate::backend::{Backend, BackendError, CapabilityProfile};
use crate::device::Device;
use crate::orchestrator::{
    check_slots, out_of_range, LoadOnly, OrchRequest, Orchestrator, OrchestratorConfig,
    StaticScale, TenantClass,
};
use crate::preempt::PreemptionPolicy;
use crate::serving::{ServingOutcome, ServingSim, SloTargets, StepEvent};

/// Below this many due replicas a dispatch barrier advances them inline.
/// Scoped-thread fan-out (spawn + join per barrier) costs tens of
/// microseconds, while a due replica between dispatch points typically
/// owes a single iteration jump — so threads only pay off on wide
/// barriers: bursty arrival fronts and the final drain.
const PARALLEL_MIN_DUE: usize = 64;

/// One request entering the fleet frontend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetRequest {
    /// Fleet-wide unique id.
    pub id: u32,
    /// Prompt length in tokens.
    pub input_len: u32,
    /// Target generation length in tokens.
    pub output_len: u32,
    /// Arrival time at the dispatcher.
    pub arrival: Cycle,
}

/// Live state of one slot at dispatch time, beside its backend's
/// capability profile: what a [`DispatchPolicy`] and a
/// [`RoutePolicy`](crate::orchestrator::RoutePolicy) are offered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicaSnapshot {
    /// Slot index in the fleet.
    pub index: usize,
    /// Requests waiting for admission.
    pub waiting: usize,
    /// Requests in the running batch (decoding or prefilling).
    pub running: usize,
    /// Preempted requests parked awaiting restoration — evicted from the
    /// cache but still owed their remaining decode, so they count as
    /// load.
    pub preempted: usize,
    /// Tokens still to generate across waiting, running, and parked
    /// requests.
    pub outstanding_tokens: u64,
    /// KV-cache pool utilization (reserved pages only), `[0, 1]`.
    pub kv_utilization: f64,
    /// KV pressure: reserved pages plus queued prompt demand plus parked
    /// contexts' restore demand, over the pool size (may exceed 1 when
    /// the backlog oversubscribes the cache).
    pub kv_pressure: f64,
    /// The slot backend's capability envelope.
    pub profile: CapabilityProfile,
}

impl ReplicaSnapshot {
    /// Reads slot `index`'s live state beside its `profile`.
    pub(crate) fn of<B: Backend>(
        index: usize,
        r: &ServingSim<B>,
        profile: CapabilityProfile,
    ) -> Self {
        Self {
            index,
            waiting: r.waiting_len(),
            running: r.running_len(),
            preempted: r.preempted_len(),
            outstanding_tokens: r.outstanding_tokens(),
            kv_utilization: r.kv_utilization(),
            kv_pressure: r.kv_pressure(),
            profile,
        }
    }

    /// Queue depth: waiting, running, and parked (preempted) requests —
    /// everything the replica still owes work for.
    pub fn queue_len(&self) -> usize {
        self.waiting + self.running + self.preempted
    }
}

/// Chooses a replica for each arriving request.
///
/// Policies are consulted once per request, in arrival order, with every
/// offered slot's queues, outstanding work and KV pressure as of the
/// arrival instant (a replica that has nothing to do before the arrival
/// is not stepped to it) — implement this trait to plug a custom
/// scheduler into [`FleetSim`], which runs it through [`LoadOnly`]. A
/// policy that keys the slots ([`Self::order_key`]) is not consulted by
/// [`FleetSim::run`]: the engine answers for it.
pub trait DispatchPolicy {
    /// Human-readable policy name (printed by the CLI).
    fn name(&self) -> &'static str;

    /// Picks a position (`< snapshots.len()`) in `snapshots` for `req`.
    /// A fleet offers every replica in index order, so there the position
    /// is the replica index.
    fn choose(&mut self, snapshots: &[ReplicaSnapshot], req: &FleetRequest) -> usize;

    /// The key this policy orders slots by, if its choice is always the
    /// first offered snapshot with the least key.
    ///
    /// `Some` is a contract: the key is a function of the snapshot alone,
    /// [`Self::choose`] returns the position of the first snapshot with
    /// the least key (lexicographic) whatever the request, and skipping
    /// `choose` changes nothing else. The engine behind [`FleetSim::run`]
    /// may then answer from its own index over the slots, in `O(log
    /// slots)` per refresh, and never call `choose`. A policy keys every
    /// snapshot or none. The default, `None`, keeps every dispatch on
    /// `choose`.
    fn order_key(&self, _snapshot: &ReplicaSnapshot) -> Option<(u64, u64)> {
        None
    }
}

/// The position of the first of `snapshots` with the least `key`: the
/// choice of a policy that orders slots by a key
/// ([`DispatchPolicy::order_key`]).
///
/// # Panics
///
/// Panics if `snapshots` is empty.
pub(crate) fn first_least(
    snapshots: &[ReplicaSnapshot],
    key: impl Fn(&ReplicaSnapshot) -> (u64, u64),
) -> usize {
    // `min_by_key` keeps the first of equal keys: the lowest position.
    (snapshots.iter().enumerate())
        .min_by_key(|(_, s)| key(s))
        .expect("non-empty fleet")
        .0
}

/// Blind rotation over replicas in submission order.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobin {
    next: usize,
}

impl DispatchPolicy for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn choose(&mut self, snapshots: &[ReplicaSnapshot], _req: &FleetRequest) -> usize {
        let i = self.next % snapshots.len();
        self.next = self.next.wrapping_add(1);
        i
    }
}

/// Join-shortest-queue: the shortest queue
/// ([`ReplicaSnapshot::queue_len`]: waiting, running and preempted
/// requests), ties broken by outstanding tokens, then position.
#[derive(Debug, Clone, Copy, Default)]
pub struct JoinShortestQueue;

impl DispatchPolicy for JoinShortestQueue {
    fn name(&self) -> &'static str {
        "jsq"
    }

    fn choose(&mut self, snapshots: &[ReplicaSnapshot], _req: &FleetRequest) -> usize {
        first_least(snapshots, Self::key)
    }

    fn order_key(&self, snapshot: &ReplicaSnapshot) -> Option<(u64, u64)> {
        Some(Self::key(snapshot))
    }
}

impl JoinShortestQueue {
    /// Queue depth, then outstanding tokens.
    fn key(s: &ReplicaSnapshot) -> (u64, u64) {
        (s.queue_len() as u64, s.outstanding_tokens)
    }
}

/// KV-pressure-aware least-loaded: lowest KV pressure (reserved pages
/// plus queued prompt demand), ties broken by outstanding tokens, then
/// position.
#[derive(Debug, Clone, Copy, Default)]
pub struct KvLeastLoaded;

impl DispatchPolicy for KvLeastLoaded {
    fn name(&self) -> &'static str {
        "kv-aware"
    }

    fn choose(&mut self, snapshots: &[ReplicaSnapshot], _req: &FleetRequest) -> usize {
        first_least(snapshots, Self::key)
    }

    fn order_key(&self, snapshot: &ReplicaSnapshot) -> Option<(u64, u64)> {
        Some(Self::key(snapshot))
    }
}

impl KvLeastLoaded {
    /// KV pressure in [`f64::total_cmp`] order, then outstanding tokens.
    fn key(s: &ReplicaSnapshot) -> (u64, u64) {
        (total_order_bits(s.kv_pressure), s.outstanding_tokens)
    }
}

/// Canonical policy names accepted by [`policy_from_name`] (and the CLI's
/// `--policy` flag).
pub const POLICY_NAMES: [&str; 3] = ["round-robin", "jsq", "kv-aware"];

/// Builds a boxed dispatch policy from its CLI name (case-insensitive;
/// `rr` and `least-loaded` are accepted aliases).
///
/// # Errors
///
/// Returns [`BackendError::InvalidSimulation`] for unrecognized names.
pub fn policy_from_name(name: &str) -> Result<Box<dyn DispatchPolicy>, BackendError> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "round-robin" | "rr" => Box::new(RoundRobin::default()),
        "jsq" | "join-shortest-queue" => Box::new(JoinShortestQueue),
        "kv-aware" | "kv" | "least-loaded" => Box::new(KvLeastLoaded),
        other => {
            return Err(BackendError::InvalidSimulation(format!(
                "unknown dispatch policy {other:?} (expected one of: {})",
                POLICY_NAMES.join(", ")
            )))
        }
    })
}

/// Aggregated outcome of a fleet run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetOutcome {
    /// Per-replica outcomes, in replica order.
    pub replicas: Vec<ServingOutcome>,
    /// Requests submitted to the dispatcher.
    pub submitted: u64,
    /// Completed requests across the fleet.
    pub completed: u64,
    /// Dropped requests across the fleet.
    pub dropped: u64,
    /// Generated tokens across the fleet.
    pub tokens: u64,
    /// Makespan: the slowest replica's total simulated cycles.
    pub makespan: Cycle,
    /// Fleet-wide sorted latencies, cycles.
    pub latencies: Vec<Cycle>,
    /// Fleet-wide sorted TTFTs, cycles.
    pub ttfts: Vec<Cycle>,
    /// Fleet-wide sorted TPOTs, cycles per token.
    pub tpots: Vec<f64>,
    /// Completed requests meeting the SLO targets.
    pub slo_attained: u64,
    /// Tokens from SLO-attaining requests.
    pub goodput_tokens: u64,
    /// Preemption events across the fleet (victim evictions under KV
    /// pressure; 0 when every replica runs drop-only).
    pub preemptions: u64,
    /// Restore events across the fleet.
    pub restores: u64,
    /// Cycles preempted requests spent parked, summed across replicas.
    pub preemption_stall_cycles: Cycle,
    /// Extra work charged to restores (re-paid prefill plus swap
    /// transfers), summed across replicas.
    pub restore_overhead_cycles: Cycle,
    /// Cycles replicas charged to on-device prefill chunks (0 when every
    /// replica runs the lump-prefill scheduler).
    pub prefill_cycles_on_device: Cycle,
    /// Prefill cycles replicas hid under decode PIM GEMV phases.
    pub overlap_hidden_cycles: Cycle,
    /// Merged DRAM-channel activity of the fleet's trace-driven MHA cost
    /// models (`None` when the whole fleet priced analytically). Replicas
    /// whose backends were cloned from one device share a replay memo and
    /// would snapshot the same cumulative counters; the merge dedupes by
    /// [`TraceSnapshot::memo_id`], summing only distinct memos.
    pub pim_trace: Option<TraceSnapshot>,
}

impl FleetOutcome {
    pub(crate) fn aggregate(submitted: u64, replicas: Vec<ServingOutcome>) -> Self {
        // Each fleet-wide sample vector is allocated once, at its length,
        // and filled straight from the replicas' sample columns.
        let samples: usize = replicas.iter().map(|r| r.samples.latencies.len()).sum();
        let mut out = FleetOutcome {
            submitted,
            latencies: Vec::with_capacity(samples),
            ttfts: Vec::with_capacity(samples),
            tpots: Vec::with_capacity(samples),
            ..Default::default()
        };
        for r in &replicas {
            out.completed += r.completed;
            out.dropped += r.dropped;
            out.tokens += r.tokens;
            out.makespan = out.makespan.max(r.total_cycles);
            out.latencies.extend_from_slice(&r.samples.latencies);
            out.ttfts.extend_from_slice(&r.samples.ttfts);
            out.tpots.extend_from_slice(&r.samples.tpots);
            out.slo_attained += r.slo_attained;
            out.goodput_tokens += r.goodput_tokens;
            out.preemptions += r.preemptions;
            out.restores += r.restores;
            out.preemption_stall_cycles += r.preemption_stall_cycles;
            out.restore_overhead_cycles += r.restore_overhead_cycles;
            out.prefill_cycles_on_device += r.prefill_cycles_on_device;
            out.overlap_hidden_cycles += r.overlap_hidden_cycles;
        }
        // Replicas built from clones of one backend share a replay memo,
        // so their snapshots are views of the same cumulative counters:
        // keep the most complete snapshot per memo, then sum distinct
        // memos. A `memo_id` of 0 marks an already-aggregated snapshot
        // (e.g. a nested fleet's merge) — those are sums over disjoint
        // memos, never duplicate views, so each one contributes in full.
        let mut per_memo: std::collections::HashMap<u64, TraceSnapshot> =
            std::collections::HashMap::new();
        let mut aggregates: Vec<&TraceSnapshot> = Vec::new();
        for t in replicas.iter().filter_map(|r| r.pim_trace.as_ref()) {
            if t.memo_id == 0 {
                aggregates.push(t);
                continue;
            }
            let entry = per_memo.entry(t.memo_id).or_insert(*t);
            if t.replays + t.memo_hits + t.disk_hits
                > entry.replays + entry.memo_hits + entry.disk_hits
            {
                *entry = *t;
            }
        }
        if !per_memo.is_empty() || !aggregates.is_empty() {
            let mut merged = TraceSnapshot::default();
            for t in per_memo.values().chain(aggregates) {
                merged.stats.merge(&t.stats);
                merged.replays += t.replays;
                merged.memo_hits += t.memo_hits;
                merged.disk_hits += t.disk_hits;
            }
            out.pim_trace = Some(merged);
        }
        out.latencies.sort_unstable();
        out.ttfts.sort_unstable();
        // Only bit-identical values are equal under `total_cmp`, so an
        // unstable sort orders them as a stable one would.
        out.tpots.sort_unstable_by(f64::total_cmp);
        out.replicas = replicas;
        out
    }

    /// Fleet throughput: tokens per second over the makespan.
    pub fn tokens_per_sec(&self) -> f64 {
        if self.makespan == 0 {
            0.0
        } else {
            self.tokens as f64 / neupims_types::units::cycles_to_secs(self.makespan)
        }
    }

    /// Fleet goodput: SLO-attaining tokens per second over the makespan.
    pub fn goodput(&self) -> f64 {
        if self.makespan == 0 {
            0.0
        } else {
            self.goodput_tokens as f64 / neupims_types::units::cycles_to_secs(self.makespan)
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

    /// Fleet-wide end-to-end latency percentile, cycles.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn latency_percentile(&self, p: f64) -> Cycle {
        crate::serving::nearest_rank(&self.latencies, p)
    }

    /// Fleet-wide TTFT percentile, cycles.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn ttft_percentile(&self, p: f64) -> Cycle {
        crate::serving::nearest_rank(&self.ttfts, p)
    }

    /// Fleet-wide TPOT percentile, cycles per token.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn tpot_percentile(&self, p: f64) -> f64 {
        crate::serving::nearest_rank(&self.tpots, p)
    }

    /// Fleet-wide NPU/PIM overlap efficiency: the fraction of on-device
    /// prefill cycles hidden under decode PIM GEMV phases across all
    /// replicas, `[0, 1]` (0 when no replica put prefill on-device).
    pub fn overlap_efficiency(&self) -> f64 {
        if self.prefill_cycles_on_device == 0 {
            0.0
        } else {
            self.overlap_hidden_cycles as f64 / self.prefill_cycles_on_device as f64
        }
    }
}

/// A fleet of serving replicas behind one dispatcher.
///
/// Replicas may wrap different backends (use `ServingSim<Box<dyn
/// Backend>>`) and different configurations — the dispatcher only talks
/// to them through [`ReplicaSnapshot`]s and the step API.
pub struct FleetSim<B: Backend = Device> {
    /// The orchestrator engine, in the configuration [`FleetSim::new`] builds.
    engine: Box<Orchestrator<B>>,
}

impl<B: Backend> std::fmt::Debug for FleetSim<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetSim")
            .field("replicas", &self.replica_count())
            .field("policy", &self.policy_name())
            .field("pending", &self.pending_len())
            .field("jobs", &self.jobs())
            .finish()
    }
}

/// The per-replica advancement primitive: steps `replica` until its local
/// clock reaches `horizon` or its stream drains. A wait stops at the
/// horizon (the replica cannot see the arrivals still held back), so a
/// request dispatched at `horizon` is admitted at its arrival. This is
/// exactly the lockstep dispatcher's inner loop, so running it per
/// replica — serially or on a worker thread — reproduces lockstep
/// behavior bit for bit.
pub(crate) fn advance_to<B: Backend>(
    replica: &mut ServingSim<B>,
    horizon: Cycle,
) -> Result<(), SimError> {
    while replica.now() < horizon {
        if replica.step_within(horizon)? == StepEvent::Finished {
            break;
        }
    }
    Ok(())
}

impl<B: Backend> FleetSim<B> {
    /// Builds a fleet from its replicas and a dispatch policy.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::InvalidSimulation`] for an empty fleet, or
    /// when a replica has `target_completions > 0` (a replica that stops
    /// early would strand its queued requests, breaking the fleet's
    /// `completed + dropped == submitted` invariant — fleets must drain).
    pub fn new(
        replicas: Vec<ServingSim<B>>,
        policy: Box<dyn DispatchPolicy>,
    ) -> Result<Self, BackendError> {
        check_slots(&replicas, "fleet", "replica")?;
        // The tenant's targets are never graded: a fleet reports no
        // tenant outcomes.
        let everyone = TenantClass::new("fleet", SloTargets::from_ms(0.0, 0.0), u8::MAX, 1.0);
        let cfg = OrchestratorConfig::default_for(replicas.len());
        let route = Box::new(LoadOnly::new(policy));
        let scale = Box::new(StaticScale::full());
        let engine = Orchestrator::engine(replicas, vec![everyone], route, scale, cfg);
        Ok(Self {
            engine: Box::new(engine),
        })
    }

    /// Sets how many worker threads replica event streams execute on
    /// between dispatch points; like [`Orchestrator::with_jobs`], the job
    /// count never changes results.
    pub fn with_jobs(self, jobs: usize) -> Self {
        Self {
            engine: Box::new(self.engine.with_jobs(jobs)),
        }
    }

    /// Worker threads used between dispatch points.
    pub fn jobs(&self) -> usize {
        self.engine.jobs
    }

    /// The replicas, in fleet index order.
    pub fn replicas(&self) -> &[ServingSim<B>] {
        &self.engine.slots
    }

    /// Shares one [`TraceMemo`] across every replica's trace-driven cost
    /// model (see [`ServingSim::with_trace_memo`]): each context-length
    /// bucket is replayed once fleet-wide instead of once per replica.
    /// The memo key includes the backend's hardware fingerprint, so one
    /// memo is sound across a heterogeneous fleet. Replicas whose
    /// backends have no PIM are unaffected; replicas added later keep
    /// their own memos.
    pub fn with_shared_trace_memo(self, memo: &TraceMemo) -> Self {
        self.map_replicas(|r| r.with_trace_memo(memo))
    }

    /// Installs one preemption policy into every replica (see
    /// [`ServingSim::with_preemption`]); replicas added later keep their
    /// own setting. Per-replica policies can instead be set on the
    /// [`ServingSim`]s before building the fleet.
    pub fn with_preemption(self, policy: Box<dyn PreemptionPolicy>) -> Self {
        self.map_replicas(|r| r.with_preemption(policy.clone()))
    }

    /// Rebuilds every replica through `f`.
    fn map_replicas(mut self, f: impl FnMut(ServingSim<B>) -> ServingSim<B>) -> Self {
        self.engine.slots = std::mem::take(&mut self.engine.slots)
            .into_iter()
            .map(f)
            .collect();
        self
    }

    /// Pre-populates replica replay memos for every context-length bucket
    /// the currently pending requests can reach, replaying cold buckets
    /// in parallel on up to [`Self::jobs`] threads before serving starts
    /// (see [`MhaCostModel::warm_replay`](neupims_sched::MhaCostModel::warm_replay)).
    /// Each pending request covers the span from its prompt length to its
    /// final context length. Returns the number of buckets replayed
    /// across the fleet; with a shared memo every bucket is replayed at
    /// most once, so later replicas find the lattice already warm.
    pub fn warm_replay(&self) -> u64 {
        let mut spans: Vec<(u64, u64)> = self
            .engine
            .pending
            .iter()
            .map(|o| {
                let lo = u64::from(o.req.input_len).max(1);
                (lo, lo + u64::from(o.req.output_len) - 1)
            })
            .collect();
        spans.sort_unstable();
        spans.dedup();
        if spans.is_empty() {
            return 0;
        }
        self.replicas()
            .iter()
            .map(|r| r.warm_cost_model(&spans, self.jobs()))
            .sum()
    }

    /// Number of replicas.
    fn replica_count(&self) -> usize {
        self.engine.slots.len()
    }

    /// Requests submitted but not yet dispatched to a replica.
    pub fn pending_len(&self) -> usize {
        self.engine.pending_len()
    }

    /// The dispatch policy's name.
    pub fn policy_name(&self) -> &'static str {
        self.engine.route_name()
    }

    /// Queues one request for dispatch at its arrival time.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DuplicateRequest`] for a fleet-wide duplicate
    /// id and [`SimError::InvalidShape`] for a zero `output_len`.
    pub fn submit(&mut self, req: FleetRequest) -> Result<(), SimError> {
        self.engine.submit(OrchRequest { req, tenant: 0 })
    }

    /// Dispatches every queued request in arrival order and drains all
    /// replicas, reporting the aggregated outcome.
    ///
    /// This is the [`Orchestrator`]'s event-driven engine (see
    /// [`Orchestrator::run`]): a dispatch at time `t` advances only the
    /// replicas whose streams trail `t`, and a drained replica is never
    /// re-stepped until a dispatch hands it new work. Results are
    /// bit-identical to [`Self::run_lockstep`] — the parity suites pin it
    /// across every scheduler × preemption × dispatch combination.
    ///
    /// Statistics are cumulative over the fleet's lifetime: a later
    /// `submit` + `run` round adds to the same counters, so
    /// `completed + dropped == submitted` keeps holding across rounds.
    /// (Note that replica clocks never rewind — requests submitted after
    /// a `run` with arrival times in the replicas' past are admitted at
    /// the current clock and their reported latency includes that gap.)
    ///
    /// # Errors
    ///
    /// Propagates replica simulation errors, and returns
    /// [`SimError::Scheduling`] naming [`Self::policy_name`] when the
    /// policy chooses a position past the fleet. A failed round leaves the
    /// failing request and every later one pending ([`Self::pending_len`]),
    /// dispatched ones on their replicas for the next `run`, and replica
    /// clocks where they got to.
    pub fn run(&mut self) -> Result<FleetOutcome, SimError> {
        self.engine.serve()
    }

    /// The lockstep reference engine: before each dispatch, every replica
    /// is stepped up to the arrival instant, one after another, and all
    /// snapshots are rebuilt from scratch. `O(replicas)` per arrival —
    /// kept as the independent golden semantics [`Self::run`] must
    /// reproduce bit for bit (the parity tests run both and compare
    /// [`FleetOutcome`]s). Not for production-scale fleets.
    ///
    /// # Errors
    ///
    /// Propagates replica simulation errors; a failed round leaves what a
    /// failed [`Self::run`] leaves.
    pub fn run_lockstep(&mut self) -> Result<FleetOutcome, SimError> {
        let mut pending = std::mem::take(&mut self.engine.pending);
        pending.sort_by_key(|r| (r.req.arrival, r.req.id));

        for (i, oreq) in pending.iter().enumerate() {
            if let Err(e) = self.dispatch_one_lockstep(oreq.req) {
                // Re-stash what hasn't been dispatched so the fleet's
                // conservation accounting survives a failed round.
                self.engine.pending.extend_from_slice(&pending[i..]);
                return Err(e);
            }
        }

        for replica in &mut self.engine.slots {
            while replica.step()? != StepEvent::Finished {}
        }
        let outcomes = self.replicas().iter().map(ServingSim::outcome).collect();
        Ok(FleetOutcome::aggregate(self.engine.dispatched, outcomes))
    }

    fn dispatch_one_lockstep(&mut self, req: FleetRequest) -> Result<(), SimError> {
        let engine = &mut *self.engine;
        // Bring every replica's local clock up to the arrival so the
        // policy sees live queues, not stale ones. Idle replicas stay
        // where they are (their snapshot is empty anyway).
        for replica in engine.slots.iter_mut() {
            advance_to(replica, req.arrival)?;
        }
        let snaps: Vec<_> = (engine.slots.iter().enumerate())
            .map(|(i, r)| ReplicaSnapshot::of(i, r, engine.profiles[i]))
            .collect();
        let choice = engine.route.route(&snaps, &req, &engine.tenants[0]);
        if choice >= snaps.len() {
            return Err(out_of_range(engine.route.name(), choice, snaps.len()));
        }
        engine.slots[choice].dispatch(req, 0, 0);
        engine.dispatched += 1;
        Ok(())
    }
}

/// The barrier primitive of the [`Orchestrator`] engine: advances the
/// replicas named by `due` (sorted, distinct indices) to `horizon`,
/// fanning out over up to `jobs` scoped worker threads when the due set
/// is large enough to pay for it. Replicas share no state between
/// barriers, so per-replica results are identical however the work is
/// divided; on error the lowest-indexed failing replica's error is
/// returned regardless of worker interleaving.
pub(crate) fn advance_set<B: Backend>(
    replicas: &mut [ServingSim<B>],
    due: &[usize],
    horizon: Cycle,
    jobs: usize,
) -> Result<(), SimError> {
    if jobs <= 1 || due.len() < PARALLEL_MIN_DUE {
        for &i in due {
            advance_to(&mut replicas[i], horizon)?;
        }
        return Ok(());
    }

    // Split the replica slice into disjoint &mut handles for the due
    // indices (O(due), relying on `due` being sorted and distinct).
    let mut handles: Vec<&mut ServingSim<B>> = Vec::with_capacity(due.len());
    let mut rest: &mut [ServingSim<B>] = replicas;
    let mut offset = 0;
    for &i in due {
        let (_, tail) = rest.split_at_mut(i - offset);
        let (r, tail) = tail.split_first_mut().expect("due indices are in range");
        handles.push(r);
        rest = tail;
        offset = i + 1;
    }

    let chunk = handles.len().div_ceil(jobs).max(1);
    let first_err: Mutex<Option<(usize, SimError)>> = Mutex::new(None);
    std::thread::scope(|s| {
        for (ci, chunk_refs) in handles.chunks_mut(chunk).enumerate() {
            let first_err = &first_err;
            s.spawn(move || {
                for (j, replica) in chunk_refs.iter_mut().enumerate() {
                    if let Err(e) = advance_to(replica, horizon) {
                        let index = due[ci * chunk + j];
                        let mut slot = first_err.lock().expect("no worker panics");
                        if slot.as_ref().is_none_or(|(lowest, _)| index < *lowest) {
                            *slot = Some((index, e));
                        }
                        // Keep the rest of the chunk untouched: the
                        // erroring replica's successors advance on
                        // the next (re-run) barrier instead.
                        break;
                    }
                }
            });
        }
    });
    match first_err.into_inner().expect("no worker panics") {
        Some((_, e)) => Err(e),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::GpuRooflineBackend;
    use crate::testsupport::{cfg_of, gpu_replicas, idle_snapshot};
    use neupims_types::LlmConfig;

    fn snap(index: usize, queue: usize, tokens: u64, kv: f64) -> ReplicaSnapshot {
        ReplicaSnapshot {
            waiting: queue,
            outstanding_tokens: tokens,
            kv_utilization: kv,
            kv_pressure: kv,
            ..idle_snapshot(index, GpuRooflineBackend::a100().caps())
        }
    }

    fn req(id: u32) -> FleetRequest {
        FleetRequest {
            id,
            input_len: 32,
            output_len: 4,
            arrival: 0,
        }
    }

    #[test]
    fn round_robin_rotates() {
        let snaps = vec![snap(0, 9, 9, 0.9), snap(1, 0, 0, 0.0), snap(2, 0, 0, 0.0)];
        let mut rr = RoundRobin::default();
        let picks: Vec<usize> = (0..5).map(|i| rr.choose(&snaps, &req(i))).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1]);
    }

    #[test]
    fn jsq_prefers_short_queues_then_light_work() {
        let mut jsq = JoinShortestQueue;
        let snaps = vec![snap(0, 2, 10, 0.1), snap(1, 1, 99, 0.9), snap(2, 2, 5, 0.2)];
        assert_eq!(jsq.choose(&snaps, &req(0)), 1, "shortest queue wins");
        let tied = vec![snap(0, 1, 50, 0.1), snap(1, 1, 20, 0.9)];
        assert_eq!(jsq.choose(&tied, &req(0)), 1, "ties break on tokens");
    }

    #[test]
    fn kv_aware_follows_page_pressure() {
        let mut kv = KvLeastLoaded;
        let snaps = vec![snap(0, 0, 0, 0.8), snap(1, 5, 90, 0.2), snap(2, 1, 5, 0.5)];
        assert_eq!(kv.choose(&snaps, &req(0)), 1, "lowest KV pressure wins");
        // Pressure (which sees queued prompts), not utilization, decides.
        let mut queued = snap(0, 3, 30, 0.1);
        queued.kv_pressure = 0.9;
        let snaps = vec![queued, snap(1, 0, 0, 0.4)];
        assert_eq!(kv.choose(&snaps, &req(0)), 1, "queued demand counts");
    }

    #[test]
    fn parked_requests_count_as_queue_load() {
        // A replica thrashing on preemption holds few pages and few
        // running requests, but its parked backlog is still owed work —
        // JSQ must not treat it as idle.
        let mut thrashing = snap(0, 0, 50, 0.1);
        thrashing.preempted = 6;
        let calm = snap(1, 2, 50, 0.1);
        assert_eq!(thrashing.queue_len(), 6);
        let mut jsq = JoinShortestQueue;
        assert_eq!(
            jsq.choose(&[thrashing, calm], &req(0)),
            1,
            "the parked backlog must repel new dispatches"
        );
    }

    #[test]
    fn policy_registry() {
        for name in POLICY_NAMES {
            assert_eq!(policy_from_name(name).unwrap().name(), name);
        }
        assert_eq!(policy_from_name("RR").unwrap().name(), "round-robin");
        assert!(policy_from_name("random").is_err());
    }

    /// Regression: a snapshot with `memo_id == 0` is an already-merged
    /// aggregate (e.g. a nested fleet's outcome) — distinct id-0
    /// aggregates must be *summed*, never deduped against each other,
    /// while duplicate views of one live memo (same nonzero id) still
    /// collapse to the most complete snapshot.
    #[test]
    fn aggregation_sums_id_zero_aggregates_without_collapsing_them() {
        let trace = |memo_id: u64, replays: u64, memo_hits: u64, disk_hits: u64| {
            let mut t = TraceSnapshot {
                memo_id,
                replays,
                memo_hits,
                disk_hits,
                ..Default::default()
            };
            t.stats.acts = replays;
            t
        };
        let outcome = |t: TraceSnapshot| ServingOutcome {
            pim_trace: Some(t),
            ..Default::default()
        };
        let replicas = vec![
            // Two distinct pre-merged aggregates: both must contribute.
            outcome(trace(0, 10, 100, 1)),
            outcome(trace(0, 7, 50, 2)),
            // Two views of one shared memo: keep the most complete only.
            outcome(trace(42, 3, 30, 0)),
            outcome(trace(42, 5, 60, 4)),
        ];
        let out = FleetOutcome::aggregate(4, replicas);
        let merged = out.pim_trace.expect("trace snapshots must merge");
        assert_eq!(
            merged.memo_id, 0,
            "a merged snapshot is itself an aggregate"
        );
        assert_eq!(merged.replays, 10 + 7 + 5);
        assert_eq!(merged.memo_hits, 100 + 50 + 60);
        assert_eq!(merged.disk_hits, 1 + 2 + 4);
        assert_eq!(merged.stats.acts, 10 + 7 + 5);
    }

    #[test]
    fn empty_fleet_is_rejected() {
        let replicas: Vec<ServingSim<GpuRooflineBackend>> = Vec::new();
        assert!(FleetSim::new(replicas, Box::new(RoundRobin::default())).is_err());
    }

    #[test]
    fn early_stopping_replicas_are_rejected() {
        // A replica with target_completions > 0 would stop stepping with
        // requests still queued, stranding them outside completed and
        // dropped alike — the fleet refuses the configuration up front.
        let mut cfg = cfg_of(4);
        cfg.target_completions = 2;
        let replicas = vec![ServingSim::new(
            GpuRooflineBackend::a100(),
            LlmConfig::gpt3_7b(),
            cfg,
        )];
        let err = FleetSim::new(replicas, Box::new(JoinShortestQueue)).unwrap_err();
        assert!(err.to_string().contains("target_completions"), "{err}");
    }

    #[test]
    fn out_of_range_policy_choice_fails_the_round_at_that_arrival() {
        // Valid choices, except one past the fleet at the k-th arrival
        // (violating the `< snapshots.len()` contract).
        struct BreaksAt(usize, usize);
        impl DispatchPolicy for BreaksAt {
            fn name(&self) -> &'static str {
                "breaks-at-k"
            }
            fn choose(&mut self, snapshots: &[ReplicaSnapshot], _req: &FleetRequest) -> usize {
                self.1 += 1;
                if self.1 == self.0 {
                    snapshots.len()
                } else {
                    self.1 % snapshots.len()
                }
            }
        }
        for k in [1, 4] {
            let mut fleet = FleetSim::new(gpu_replicas(2), Box::new(BreaksAt(k, 0))).unwrap();
            for i in 0..6u32 {
                fleet
                    .submit(FleetRequest {
                        arrival: u64::from(i) * 10_000,
                        ..req(i)
                    })
                    .unwrap();
            }
            let err = fleet.run().unwrap_err().to_string();
            assert!(
                err.contains(
                    "policy \"breaks-at-k\" chose position 2, but the offered slot count is 2"
                ),
                "{err}"
            );
            assert_eq!(fleet.policy_name(), "breaks-at-k");
            // The failed round must not lose undispatched requests: the
            // k-th arrival and every later one wait.
            assert_eq!(fleet.pending_len(), 6 - (k - 1));
            // The next round serves the dispatched and the pending alike.
            let out = fleet.run().unwrap();
            assert_eq!((fleet.pending_len(), out.submitted), (0, 6));
            assert_eq!(out.completed + out.dropped, 6);
        }
    }

    #[test]
    fn fleet_wide_duplicate_ids_are_rejected() {
        let mut fleet = FleetSim::new(gpu_replicas(2), Box::new(RoundRobin::default())).unwrap();
        fleet.submit(req(7)).unwrap();
        assert!(matches!(
            fleet.submit(req(7)),
            Err(SimError::DuplicateRequest(_))
        ));
        let mut zero = req(8);
        zero.output_len = 0;
        assert!(matches!(fleet.submit(zero), Err(SimError::InvalidShape(_))));
    }

    #[test]
    fn accounting_stays_consistent_across_run_rounds() {
        // `submitted` is cumulative like the replicas' counters, so the
        // conservation invariant survives a second submit + run round.
        let mut fleet = FleetSim::new(gpu_replicas(2), Box::new(JoinShortestQueue)).unwrap();
        fleet.submit(req(0)).unwrap();
        let first = fleet.run().unwrap();
        assert_eq!(first.submitted, 1);
        assert_eq!(first.completed + first.dropped, first.submitted);
        fleet.submit(req(1)).unwrap();
        let second = fleet.run().unwrap();
        assert_eq!(second.submitted, 2);
        assert_eq!(second.completed + second.dropped, second.submitted);
    }

    #[test]
    fn fleet_conserves_requests_and_aggregates() {
        let mut fleet = FleetSim::new(gpu_replicas(4), Box::new(JoinShortestQueue)).unwrap();
        for i in 0..20u32 {
            fleet
                .submit(FleetRequest {
                    id: i,
                    input_len: 48 + i,
                    output_len: 3 + i % 4,
                    arrival: i as u64 * 10_000,
                })
                .unwrap();
        }
        let out = fleet.run().unwrap();
        assert_eq!(out.submitted, 20);
        assert_eq!(out.completed + out.dropped, 20);
        assert_eq!(out.dropped, 0);
        assert_eq!(out.replicas.len(), 4);
        assert_eq!(out.latencies.len(), 20);
        assert!(out.makespan > 0);
        assert!(out.tokens_per_sec() > 0.0);
        assert!(out.latency_percentile(50.0) <= out.latency_percentile(99.0));
        assert!(out.ttft_percentile(50.0) > 0);
        // Every replica served something under JSQ with spread arrivals.
        assert!(out.replicas.iter().all(|r| r.completed > 0));
    }
}
