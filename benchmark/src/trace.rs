//! Pass-through decorators over the simulator's public layer traits, and
//! the in-memory span recorder they report to.
//!
//! Every decorator forwards each trait method to the wrapped value
//! unchanged; the timed ones additionally open a span around the call.
//! A span records its name, its parent (the span open on the same thread
//! when it started) and its duration. A layer's self time is its
//! duration minus the time of the child spans it covers.
//!
//! Counters are kept per replica ([`ReplicaCounters`]), so replicas that
//! advance on different threads never write the same cache line; the
//! front-end layers (dispatch, routing, autoscaling and the top-level
//! timers) are called from one thread and share one [`FrontCounters`].
//! Span edges (name, parent) are aggregated per thread and merged when
//! [`take_edges`] is called.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use neupims_core::backend::{
    Backend, BackendCaps, BackendError, CapabilityProfile, IterationResult,
};
use neupims_core::fleet::{DispatchPolicy, FleetRequest, ReplicaSnapshot};
use neupims_core::orchestrator::{
    AutoscaleObservation, AutoscalePolicy, RouteCandidate, RoutePolicy, TenantClass,
};
use neupims_core::preempt::{PreemptionPolicy, RestoreMode, VictimCandidate};
use neupims_core::scheduler::{IterationDemand, IterationPlan, PrefillCharge, SchedulerPolicy};
use neupims_kvcache::KvGeometry;
use neupims_sched::{CostModelKind, MhaCostModel, MhaLatencyEstimator, TraceMemo, TraceSnapshot};
use neupims_types::{config::InterconnectConfig, Cycle, LlmConfig, MemConfig, RequestId};

/// Calls, host time and handled items of one layer boundary. Relaxed
/// atomics: the values publish no other data.
#[derive(Debug, Default)]
pub struct SpanStat {
    calls: AtomicU64,
    total_ns: AtomicU64,
    self_ns: AtomicU64,
    items: AtomicU64,
}

impl SpanStat {
    fn record(&self, total_ns: u64, self_ns: u64, items: u64) {
        self.calls.fetch_add(1, Relaxed);
        self.total_ns.fetch_add(total_ns, Relaxed);
        self.self_ns.fetch_add(self_ns, Relaxed);
        self.items.fetch_add(items, Relaxed);
    }

    /// Completed spans.
    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    /// Host nanoseconds inside the spans, children included.
    pub fn total_ns(&self) -> u64 {
        self.total_ns.load(Relaxed)
    }

    /// Host nanoseconds inside the spans, minus the child spans they
    /// cover.
    pub fn self_ns(&self) -> u64 {
        self.self_ns.load(Relaxed)
    }

    /// Items handled across the spans (batch sizes, candidate counts).
    pub fn items(&self) -> u64 {
        self.items.load(Relaxed)
    }

    fn add(&self, other: &SpanStat) {
        self.calls.fetch_add(other.calls(), Relaxed);
        self.total_ns.fetch_add(other.total_ns(), Relaxed);
        self.self_ns.fetch_add(other.self_ns(), Relaxed);
        self.items.fetch_add(other.items(), Relaxed);
    }
}

/// The per-replica layers: backend pricing, MHA cost model, scheduler
/// and preemption policy.
#[derive(Debug, Default)]
pub struct ReplicaCounters {
    /// `Backend::decode_iteration`; items are decoded sequences.
    pub decode: SpanStat,
    /// `Backend::prefill_cycles`; items are prompts.
    pub prefill: SpanStat,
    /// `MhaCostModel::estimate` and `estimate_sum`; items are sequences.
    pub estimate: SpanStat,
    /// `SchedulerPolicy::plan`; items are decode-ready requests.
    pub plan: SpanStat,
    /// `SchedulerPolicy::admission_charge`.
    pub admission: SpanStat,
    /// `PreemptionPolicy::select_victims`; items are victims chosen.
    pub select: SpanStat,
}

impl ReplicaCounters {
    fn add(&self, other: &ReplicaCounters) {
        self.decode.add(&other.decode);
        self.prefill.add(&other.prefill);
        self.estimate.add(&other.estimate);
        self.plan.add(&other.plan);
        self.admission.add(&other.admission);
        self.select.add(&other.select);
    }
}

/// The front-end layers, all called from the thread driving the run.
#[derive(Debug, Default)]
pub struct FrontCounters {
    /// `DispatchPolicy::choose`; items are replica snapshots offered.
    pub dispatch: SpanStat,
    /// `RoutePolicy::route`; items are candidates offered.
    pub route: SpanStat,
    /// `AutoscalePolicy::desired`.
    pub autoscale: SpanStat,
    /// `submit` of every request.
    pub submit: SpanStat,
    /// `FleetSim::warm_replay`.
    pub warm_replay: SpanStat,
    /// `FleetSim::run` or `Orchestrator::run`.
    pub run: SpanStat,
}

/// One traced run: its front-end counters and one counter set per
/// replica.
#[derive(Debug, Default)]
pub struct Trace {
    /// Front-end counters.
    pub front: FrontCounters,
    replicas: Mutex<Vec<Arc<ReplicaCounters>>>,
}

impl Trace {
    /// A fresh trace with no replicas.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Registers a replica and returns its own counter set.
    pub fn replica(&self) -> Arc<ReplicaCounters> {
        let c = Arc::new(ReplicaCounters::default());
        self.replicas
            .lock()
            .expect("no thread panics while registering a replica")
            .push(Arc::clone(&c));
        c
    }

    /// Every replica's counters, in registration order.
    pub fn replicas(&self) -> Vec<Arc<ReplicaCounters>> {
        self.replicas
            .lock()
            .expect("no thread panics while registering a replica")
            .clone()
    }

    /// The replica counters summed after the run.
    pub fn replica_totals(&self) -> ReplicaCounters {
        let total = ReplicaCounters::default();
        for c in self.replicas() {
            total.add(&c);
        }
        total
    }
}

/// One aggregated span edge: every span of `name` whose parent was
/// `parent` (empty for a root span).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edge {
    /// Span name.
    pub name: &'static str,
    /// Parent span name, empty for a root span.
    pub parent: &'static str,
    /// Spans on this edge.
    pub calls: u64,
    /// Host nanoseconds inside them.
    pub total_ns: u64,
    /// Host nanoseconds inside them minus their children.
    pub self_ns: u64,
}

fn merge_edge(book: &mut Vec<Edge>, e: &Edge) {
    match book
        .iter_mut()
        .find(|b| b.name == e.name && b.parent == e.parent)
    {
        Some(b) => {
            b.calls += e.calls;
            b.total_ns += e.total_ns;
            b.self_ns += e.self_ns;
        }
        None => book.push(e.clone()),
    }
}

/// Edges of threads that have exited.
static EXITED: Mutex<Vec<Edge>> = Mutex::new(Vec::new());

/// A thread's edge book; merged into [`EXITED`] when the thread ends.
struct EdgeBook(Vec<Edge>);

impl Drop for EdgeBook {
    fn drop(&mut self) {
        if let Ok(mut exited) = EXITED.lock() {
            for e in &self.0 {
                merge_edge(&mut exited, e);
            }
        }
    }
}

struct Frame {
    name: &'static str,
    child_ns: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    static EDGES: RefCell<EdgeBook> = const { RefCell::new(EdgeBook(Vec::new())) };
}

/// Runs `f` inside a span named `name`, recording it into `stat` with
/// `items` handled items.
pub fn span<R>(name: &'static str, stat: &SpanStat, items: u64, f: impl FnOnce() -> R) -> R {
    STACK.with(|s| s.borrow_mut().push(Frame { name, child_ns: 0 }));
    let start = Instant::now();
    let out = f();
    let total = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let (child_ns, parent) = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let frame = s.pop().expect("span frames are balanced");
        debug_assert_eq!(frame.name, name);
        let parent = match s.last_mut() {
            Some(p) => {
                p.child_ns += total;
                p.name
            }
            None => "",
        };
        (frame.child_ns, parent)
    });
    let self_ns = total.saturating_sub(child_ns);
    stat.record(total, self_ns, items);
    EDGES.with(|b| {
        merge_edge(
            &mut b.borrow_mut().0,
            &Edge {
                name,
                parent,
                calls: 1,
                total_ns: total,
                self_ns,
            },
        )
    });
    out
}

/// Runs `f` inside a span recorded into the front-end counter `stat`
/// picks from `trace`, or runs it plainly without a trace.
pub fn front_span<R>(
    trace: Option<&Arc<Trace>>,
    name: &'static str,
    stat: fn(&FrontCounters) -> &SpanStat,
    f: impl FnOnce() -> R,
) -> R {
    match trace {
        Some(t) => span(name, stat(&t.front), 0, f),
        None => f(),
    }
}

/// Takes every span edge recorded so far, on this thread and on threads
/// that have exited, leaving the books empty.
pub fn take_edges() -> Vec<Edge> {
    let mut out = EDGES.with(|b| std::mem::take(&mut b.borrow_mut().0));
    for e in EXITED
        .lock()
        .expect("edge books merge without panicking")
        .drain(..)
    {
        merge_edge(&mut out, &e);
    }
    out.sort_by(|a, b| (a.parent, a.name).cmp(&(b.parent, b.name)));
    out
}

/// A [`Backend`] decorator timing decode and prefill pricing, and
/// wrapping the MHA cost models it hands out in [`TracedCostModel`].
pub struct TracedBackend<B> {
    inner: B,
    counters: Arc<ReplicaCounters>,
}

impl<B: Backend> TracedBackend<B> {
    /// Wraps `inner`, reporting to `counters`.
    pub fn new(inner: B, counters: Arc<ReplicaCounters>) -> Self {
        Self { inner, counters }
    }
}

impl<B: Backend> Backend for TracedBackend<B> {
    fn label(&self) -> &str {
        self.inner.label()
    }

    fn caps(&self) -> BackendCaps {
        self.inner.caps()
    }

    fn capability_profile(&self) -> CapabilityProfile {
        self.inner.capability_profile()
    }

    fn peak_compute(&self) -> f64 {
        self.inner.peak_compute()
    }

    fn mem_config(&self) -> MemConfig {
        self.inner.mem_config()
    }

    fn interconnect(&self) -> InterconnectConfig {
        self.inner.interconnect()
    }

    #[allow(deprecated)]
    fn mha_estimator(&self, model: &LlmConfig, tp: u32) -> Option<MhaLatencyEstimator> {
        self.inner.mha_estimator(model, tp)
    }

    fn preferred_cost_model(&self) -> CostModelKind {
        self.inner.preferred_cost_model()
    }

    fn mha_cost_model(
        &self,
        model: &LlmConfig,
        tp: u32,
        kind: CostModelKind,
    ) -> Option<Box<dyn MhaCostModel>> {
        self.inner.mha_cost_model(model, tp, kind).map(|m| {
            Box::new(TracedCostModel {
                inner: m,
                counters: Arc::clone(&self.counters),
            }) as Box<dyn MhaCostModel>
        })
    }

    fn attach_trace_memo(&mut self, memo: &TraceMemo) -> bool {
        self.inner.attach_trace_memo(memo)
    }

    fn prefill_cycles(
        &self,
        model: &LlmConfig,
        tp: u32,
        layers: u32,
        prompt_lens: &[u64],
    ) -> Result<Cycle, BackendError> {
        span(
            "backend.prefill",
            &self.counters.prefill,
            prompt_lens.len() as u64,
            || self.inner.prefill_cycles(model, tp, layers, prompt_lens),
        )
    }

    fn decode_iteration(
        &self,
        model: &LlmConfig,
        tp: u32,
        layers: u32,
        seq_lens: &[u64],
    ) -> Result<IterationResult, BackendError> {
        span(
            "backend.decode",
            &self.counters.decode,
            seq_lens.len() as u64,
            || self.inner.decode_iteration(model, tp, layers, seq_lens),
        )
    }
}

/// An [`MhaCostModel`] decorator timing estimates.
#[derive(Debug)]
pub struct TracedCostModel {
    inner: Box<dyn MhaCostModel>,
    counters: Arc<ReplicaCounters>,
}

impl MhaCostModel for TracedCostModel {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn geometry(&self) -> &KvGeometry {
        self.inner.geometry()
    }

    fn estimate(&self, seq_len: u64) -> f64 {
        span("cost.estimate", &self.counters.estimate, 1, || {
            self.inner.estimate(seq_len)
        })
    }

    fn estimate_sum(&self, seq_lens: &[u64]) -> f64 {
        span(
            "cost.estimate",
            &self.counters.estimate,
            seq_lens.len() as u64,
            || self.inner.estimate_sum(seq_lens),
        )
    }

    fn trace_snapshot(&self) -> Option<TraceSnapshot> {
        self.inner.trace_snapshot()
    }

    fn warm_replay(&self, spans: &[(u64, u64)], jobs: usize) -> u64 {
        self.inner.warm_replay(spans, jobs)
    }

    fn clone_box(&self) -> Box<dyn MhaCostModel> {
        Box::new(TracedCostModel {
            inner: self.inner.clone_box(),
            counters: Arc::clone(&self.counters),
        })
    }
}

/// A [`SchedulerPolicy`] decorator timing admission charges and
/// iteration plans.
#[derive(Debug)]
pub struct TracedScheduler {
    inner: Box<dyn SchedulerPolicy>,
    counters: Arc<ReplicaCounters>,
}

impl TracedScheduler {
    /// Wraps `inner`, reporting to `counters`.
    pub fn new(inner: Box<dyn SchedulerPolicy>, counters: Arc<ReplicaCounters>) -> Self {
        Self { inner, counters }
    }
}

impl SchedulerPolicy for TracedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn clone_box(&self) -> Box<dyn SchedulerPolicy> {
        Box::new(TracedScheduler {
            inner: self.inner.clone_box(),
            counters: Arc::clone(&self.counters),
        })
    }

    fn admission_charge(
        &self,
        backend: &dyn Backend,
        model: &LlmConfig,
        tp: u32,
        layers: u32,
        prompt_len: u64,
    ) -> Result<PrefillCharge, BackendError> {
        span("scheduler.admission", &self.counters.admission, 1, || {
            self.inner
                .admission_charge(backend, model, tp, layers, prompt_len)
        })
    }

    fn plan(
        &mut self,
        backend: &dyn Backend,
        model: &LlmConfig,
        tp: u32,
        layers: u32,
        demand: &IterationDemand<'_>,
    ) -> Result<IterationPlan, BackendError> {
        let items = demand.decode.len() as u64;
        span("scheduler.plan", &self.counters.plan, items, || {
            self.inner.plan(backend, model, tp, layers, demand)
        })
    }
}

/// A [`PreemptionPolicy`] decorator timing victim selection.
#[derive(Debug)]
pub struct TracedPreemption {
    inner: Box<dyn PreemptionPolicy>,
    counters: Arc<ReplicaCounters>,
}

impl TracedPreemption {
    /// Wraps `inner`, reporting to `counters`.
    pub fn new(inner: Box<dyn PreemptionPolicy>, counters: Arc<ReplicaCounters>) -> Self {
        Self { inner, counters }
    }
}

impl PreemptionPolicy for TracedPreemption {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn clone_box(&self) -> Box<dyn PreemptionPolicy> {
        Box::new(TracedPreemption {
            inner: self.inner.clone_box(),
            counters: Arc::clone(&self.counters),
        })
    }

    fn restore_mode(&self) -> Option<RestoreMode> {
        self.inner.restore_mode()
    }

    fn select_victims(&self, candidates: &[VictimCandidate], needed_pages: u64) -> Vec<RequestId> {
        let victims = span("preempt.select", &self.counters.select, 0, || {
            self.inner.select_victims(candidates, needed_pages)
        });
        self.counters
            .select
            .items
            .fetch_add(victims.len() as u64, Relaxed);
        victims
    }
}

/// A [`DispatchPolicy`] decorator timing replica choice.
pub struct TracedDispatch {
    inner: Box<dyn DispatchPolicy>,
    trace: Arc<Trace>,
}

impl TracedDispatch {
    /// Wraps `inner`, reporting to `trace`'s front-end counters.
    pub fn new(inner: Box<dyn DispatchPolicy>, trace: Arc<Trace>) -> Self {
        Self { inner, trace }
    }
}

impl DispatchPolicy for TracedDispatch {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn choose(&mut self, snapshots: &[ReplicaSnapshot], req: &FleetRequest) -> usize {
        span(
            "fleet.dispatch",
            &self.trace.front.dispatch,
            snapshots.len() as u64,
            || self.inner.choose(snapshots, req),
        )
    }
}

/// A [`RoutePolicy`] decorator timing slot choice.
pub struct TracedRoute {
    inner: Box<dyn RoutePolicy>,
    trace: Arc<Trace>,
}

impl TracedRoute {
    /// Wraps `inner`, reporting to `trace`'s front-end counters.
    pub fn new(inner: Box<dyn RoutePolicy>, trace: Arc<Trace>) -> Self {
        Self { inner, trace }
    }
}

impl RoutePolicy for TracedRoute {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn route(
        &mut self,
        candidates: &[RouteCandidate],
        req: &FleetRequest,
        tenant: &TenantClass,
    ) -> usize {
        span(
            "orchestrator.route",
            &self.trace.front.route,
            candidates.len() as u64,
            || self.inner.route(candidates, req, tenant),
        )
    }
}

/// An [`AutoscalePolicy`] decorator timing scaling decisions.
pub struct TracedAutoscale {
    inner: Box<dyn AutoscalePolicy>,
    trace: Arc<Trace>,
}

impl TracedAutoscale {
    /// Wraps `inner`, reporting to `trace`'s front-end counters.
    pub fn new(inner: Box<dyn AutoscalePolicy>, trace: Arc<Trace>) -> Self {
        Self { inner, trace }
    }
}

impl AutoscalePolicy for TracedAutoscale {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn desired(&mut self, obs: &AutoscaleObservation) -> usize {
        span(
            "orchestrator.autoscale",
            &self.trace.front.autoscale,
            1,
            || self.inner.desired(obs),
        )
    }
}
