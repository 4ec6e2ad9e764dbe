//! End-to-end and per-layer metrics, correctness checks, and the JSON the
//! benchmark prints.

use std::fmt::Write as _;

use neupims_core::orchestrator::OrchestratorOutcome;
use neupims_types::units::cycles_to_secs;

use crate::trace::{Edge, Trace};
use crate::workload::Outcome;

/// One named, unit-carrying number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Nearest-rank percentile over a sorted slice (the simulator's own
/// definition); `T::default()` when empty.
pub fn nearest_rank<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize - 1;
    sorted[rank.min(n - 1)]
}

/// Simulated outcomes pooled over several runs of one workload: counts
/// and cycles are summed, latency samples concatenated. Pooling runs of
/// different seeds is one larger experiment, so the `sim` metrics it
/// yields vary less from seed to seed than any single run's.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct SimPool {
    submitted: u64,
    completed: u64,
    failed: u64,
    tokens: u64,
    makespan: u128,
    ttfts: Vec<u64>,
    tpots: Vec<f64>,
    slo_completed: u64,
    slo_attained: u64,
    goodput_tokens: u64,
    cost_cycles: u128,
}

impl SimPool {
    /// Adds one run's outcome.
    pub fn add(&mut self, out: &Outcome) {
        match out {
            Outcome::Fleet(f) => {
                self.submitted += f.submitted;
                self.completed += f.completed;
                self.failed += f.dropped;
                self.tokens += f.tokens;
                self.makespan += u128::from(f.makespan);
                self.ttfts.extend_from_slice(&f.ttfts);
                self.tpots.extend_from_slice(&f.tpots);
                self.slo_completed += f.completed;
                self.slo_attained += f.slo_attained;
                self.goodput_tokens += f.goodput_tokens;
                self.cost_cycles += f.replicas.len() as u128 * u128::from(f.makespan);
            }
            Outcome::Orchestrator(o) => {
                self.submitted += o.tenants.iter().map(|t| t.submitted).sum::<u64>();
                self.completed += o.fleet.completed;
                self.failed += o.fleet.dropped + o.shed;
                self.tokens += o.fleet.tokens;
                self.makespan += u128::from(o.fleet.makespan);
                // Measured from the due arrival: deferral counts.
                for t in &o.tenants {
                    self.ttfts.extend_from_slice(&t.ttfts);
                    self.tpots.extend_from_slice(&t.tpots);
                    self.slo_completed += t.completed;
                    self.slo_attained += t.slo_attained;
                    self.goodput_tokens += t.goodput_tokens;
                }
                self.cost_cycles += u128::from(o.replica_cycles_on);
            }
        }
    }

    /// Requests submitted across the pooled runs.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Dropped plus shed requests across the pooled runs.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// TTFT samples, and how many lie beyond the p99.
    pub fn ttft_samples(&self) -> (usize, usize) {
        let n = self.ttfts.len();
        (n, n - (n as f64 * 0.99).ceil() as usize)
    }

    /// The `sim` end-to-end metrics and `completed_share`.
    pub fn metrics(&self) -> Vec<Metric> {
        let mut ttfts = self.ttfts.clone();
        ttfts.sort_unstable();
        let mut tpots = self.tpots.clone();
        tpots.sort_by(f64::total_cmp);
        let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
        let makespan_s: f64 = cycles_to_secs(u64::try_from(self.makespan).unwrap_or(u64::MAX));
        vec![
            metric(
                "completed_share",
                ratio(self.completed as f64, self.submitted as f64),
                "ratio",
            ),
            metric(
                "sim_tokens_per_s",
                ratio(self.tokens as f64, makespan_s),
                "tokens/s",
            ),
            metric(
                "sim_ttft_p50_ms",
                nearest_rank(&ttfts, 50.0) as f64 / 1e6,
                "ms",
            ),
            metric(
                "sim_ttft_p99_ms",
                nearest_rank(&ttfts, 99.0) as f64 / 1e6,
                "ms",
            ),
            metric("sim_tpot_p99_ms", nearest_rank(&tpots, 99.0) / 1e6, "ms"),
            metric(
                "sim_slo_attainment",
                ratio(self.slo_attained as f64, self.slo_completed as f64),
                "ratio",
            ),
            metric(
                "sim_goodput_per_cost",
                ratio(self.goodput_tokens as f64, self.cost_cycles as f64 / 1e6),
                "tokens/Mcycle",
            ),
        ]
    }
}

/// Checks request conservation of one run that generated `generated`
/// requests: completed + dropped (+ shed) == submitted, and per tenant
/// admitted + deferred + shed == submitted.
///
/// # Errors
///
/// Describes the first violated invariant.
pub fn check_conservation(out: &Outcome, generated: u64) -> Result<(), String> {
    match out {
        Outcome::Fleet(f) => {
            if f.submitted != generated {
                return Err(format!(
                    "fleet counted {} submitted of {generated} generated",
                    f.submitted
                ));
            }
            if f.completed + f.dropped != f.submitted {
                return Err(format!(
                    "completed {} + dropped {} != submitted {}",
                    f.completed, f.dropped, f.submitted
                ));
            }
        }
        Outcome::Orchestrator(o) => {
            let mut submitted = 0;
            for t in &o.tenants {
                if t.admitted + t.deferred + t.shed != t.submitted {
                    return Err(format!(
                        "tenant {}: admitted {} + deferred {} + shed {} != submitted {}",
                        t.name, t.admitted, t.deferred, t.shed, t.submitted
                    ));
                }
                submitted += t.submitted;
            }
            if submitted != generated {
                return Err(format!(
                    "tenants counted {submitted} submitted of {generated} generated"
                ));
            }
            if o.fleet.completed + o.fleet.dropped + o.shed != submitted {
                return Err(format!(
                    "completed {} + dropped {} + shed {} != submitted {submitted}",
                    o.fleet.completed, o.fleet.dropped, o.shed
                ));
            }
        }
    }
    Ok(())
}

/// FNV-1a over a value's `Debug` rendering. `f64` renders as its
/// shortest round-trip form, so equal digests mean bit-identical values
/// (up to hash collisions).
pub fn digest<T: std::fmt::Debug>(value: &T) -> u64 {
    struct Fnv(u64);
    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for b in s.bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    write!(h, "{value:?}").expect("hashing never fails");
    h.0
}

/// Host seconds the reference kernel takes at the reference speed that
/// the `host` time metrics are reported at.
pub const REFERENCE_SECONDS: f64 = 0.02;

/// Runs a fixed kernel of hash-map, heap and sort work (the simulator's
/// own mix, but none of its code) and returns the host seconds it took.
/// Timed next to each run, it measures how fast the machine is at that
/// moment: `seconds / REFERENCE_SECONDS` is the factor by which a
/// shared host slowed the run down.
pub fn reference_kernel_seconds() -> f64 {
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashMap};
    let start = std::time::Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    // A working set of a few hundred KiB, so the kernel reuses heap the
    // runs already hold instead of raising the process's peak RSS.
    let mut map: HashMap<u64, u64> = HashMap::with_capacity(8_192);
    let mut heap = BinaryHeap::with_capacity(1_025);
    let mut v = vec![0u64; 16_384];
    let mut acc = 0u64;
    for round in 0..12u64 {
        for i in 0..16_384u64 {
            let r = next();
            map.insert(r % 8_192, i);
            heap.push(Reverse(r % 1_000_003));
            if heap.len() > 1_024 {
                acc ^= heap.pop().map_or(0, |Reverse(v)| v);
            }
            acc = acc.wrapping_add(map.get(&(r % 8_192)).copied().unwrap_or(round));
        }
        v.iter_mut().for_each(|e| *e = next());
        v.sort_unstable();
        acc ^= v[v.len() / 2];
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64()
}

/// Peak resident set size of this process (`VmHWM`), MB.
///
/// # Errors
///
/// Fails when `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Per-layer metrics of one traced run, named by module. `steps` counts
/// `ServingSim::step` calls when the engine exposes its replicas; without
/// it, executed iterations stand in.
pub fn layer_metrics(trace: &Trace, outcome: &Outcome, steps: Option<u64>) -> Vec<Metric> {
    let front = &trace.front;
    let r = trace.replica_totals();
    let (fleet, orch) = match outcome {
        Outcome::Fleet(f) => (f, None),
        Outcome::Orchestrator(o) => (&o.fleet, Some(o)),
    };
    let iterations: u64 = fleet.replicas.iter().map(|s| s.iterations).sum();
    let steps = steps.unwrap_or(iterations);
    let per = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let (run_self_fleet, run_self_orch) = match orch {
        None => (front.run.self_ns(), 0),
        Some(_) => (0, front.run.self_ns()),
    };
    let orch_count = |f: fn(&OrchestratorOutcome) -> u64| orch.map_or(0, f) as f64;
    let pim = fleet.pim_trace.unwrap_or_default();
    let lookups = pim.replays + pim.memo_hits + pim.disk_hits;
    let peak_kv = fleet
        .replicas
        .iter()
        .map(|s| s.peak_kv_utilization)
        .fold(0.0, f64::max);
    vec![
        metric("submit.ns", front.submit.total_ns() as f64, "ns"),
        metric(
            "fleet.dispatch.calls",
            front.dispatch.calls() as f64,
            "count",
        ),
        metric("fleet.dispatch.ns", front.dispatch.total_ns() as f64, "ns"),
        metric(
            "fleet.warm_replay.ns",
            front.warm_replay.total_ns() as f64,
            "ns",
        ),
        metric("fleet.run.self_ns", run_self_fleet as f64, "ns"),
        metric("serving.steps", steps as f64, "count"),
        metric(
            "serving.ns_per_step",
            per(front.run.total_ns(), steps),
            "ns",
        ),
        metric(
            "orchestrator.route.calls",
            front.route.calls() as f64,
            "count",
        ),
        metric("orchestrator.route.ns", front.route.total_ns() as f64, "ns"),
        metric(
            "orchestrator.route.candidates",
            per(front.route.items(), front.route.calls()),
            "count",
        ),
        metric(
            "orchestrator.autoscale.calls",
            front.autoscale.calls() as f64,
            "count",
        ),
        metric(
            "orchestrator.autoscale.ns",
            front.autoscale.total_ns() as f64,
            "ns",
        ),
        metric("orchestrator.run.self_ns", run_self_orch as f64, "ns"),
        metric("orchestrator.deferred", orch_count(|o| o.deferred), "count"),
        metric("orchestrator.shed", orch_count(|o| o.shed), "count"),
        metric("orchestrator.warmups", orch_count(|o| o.warmups), "count"),
        metric(
            "orchestrator.scale_downs",
            orch_count(|o| o.scale_downs),
            "count",
        ),
        metric("scheduler.plan.calls", r.plan.calls() as f64, "count"),
        metric("scheduler.plan.self_ns", r.plan.self_ns() as f64, "ns"),
        metric(
            "scheduler.admission.calls",
            r.admission.calls() as f64,
            "count",
        ),
        metric(
            "scheduler.admission.self_ns",
            r.admission.self_ns() as f64,
            "ns",
        ),
        metric(
            "serving.overlap_efficiency",
            fleet.overlap_efficiency(),
            "ratio",
        ),
        metric("backend.decode.calls", r.decode.calls() as f64, "count"),
        metric("backend.decode.ns", r.decode.total_ns() as f64, "ns"),
        metric("backend.decode.seqs", r.decode.items() as f64, "count"),
        metric("backend.prefill.calls", r.prefill.calls() as f64, "count"),
        metric("backend.prefill.ns", r.prefill.total_ns() as f64, "ns"),
        metric("cost.estimate.calls", r.estimate.calls() as f64, "count"),
        metric("cost.estimate.ns", r.estimate.total_ns() as f64, "ns"),
        metric("cost.memo_hit_rate", pim.memo_hit_rate(), "ratio"),
        metric("cost.memo_lookups", lookups as f64, "count"),
        metric("cost.replays", pim.replays as f64, "count"),
        metric(
            "dram.act",
            (pim.stats.acts + pim.stats.pim_acts) as f64,
            "count",
        ),
        metric(
            "dram.pre",
            (pim.stats.precharges + pim.stats.pim_precharges) as f64,
            "count",
        ),
        metric("dram.ref", pim.stats.refreshes as f64, "count"),
        metric("dram.row_hit_rate", pim.stats.hit_rate(), "ratio"),
        metric("preempt.select.calls", r.select.calls() as f64, "count"),
        metric("preempt.select.ns", r.select.total_ns() as f64, "ns"),
        metric("preempt.preemptions", fleet.preemptions as f64, "count"),
        metric("preempt.restores", fleet.restores as f64, "count"),
        metric("kvcache.peak_util", peak_kv, "ratio"),
    ]
}

/// Renders `value` as a JSON string literal.
pub fn json_str(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a finite number with every digit of its shortest round-trip
/// form (non-finite values, which JSON cannot hold, render as `null`).
pub fn json_num(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_owned()
    }
}

/// The `metrics` object of the result line.
pub fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The span edges as a JSON array.
pub fn json_edges(edges: &[Edge]) -> String {
    let body: Vec<String> = edges
        .iter()
        .map(|e| {
            format!(
                "{{\"name\": {}, \"parent\": {}, \"calls\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                json_str(e.name),
                if e.parent.is_empty() {
                    "null".to_owned()
                } else {
                    json_str(e.parent)
                },
                e.calls,
                e.total_ns,
                e.self_ns
            )
        })
        .collect();
    format!("[{}]", body.join(", "))
}
