//! Executes suite specs against the simulator and collects metric maps.
//!
//! Each [`ScenarioSpec`] becomes one [`ScenarioRun`]: a flat
//! `metric name -> f64` map the scorer grades golden expectations
//! against. A scenario's [`SystemSpec`] carries its hardware (Table 2
//! unless the scenario overrides the memory system), so every scenario
//! runs on its own calibrated configuration, each distinct one measured
//! once per process. Serving scenarios build their system through
//! [`SystemSpec::build`] — a [`FleetSim`](neupims_core::fleet::FleetSim)
//! (a single replica is just a one-element fleet, so every serving metric
//! comes from the same code path) or the meta-orchestrator; throughput
//! scenarios are priced by the one warm-batch loop,
//! [`SystemSpec::warm_means`], behind Figures 6, 12, 13 and 15 and Tables
//! 3 and 4.

use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;

use neupims_core::backend::is_gpu_name;
use neupims_core::fleet::{FleetOutcome, FleetRequest};
use neupims_core::orchestrator::OrchestratorOutcome;
use neupims_core::system::System;
use neupims_sched::{CostModelKind, TraceMemo};
use neupims_types::request_id;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::spec::{ScenarioKind, ScenarioSpec, SpecError, SuiteSpec, SystemSpec};

/// Any failure while executing a suite.
#[derive(Debug)]
pub enum EvalError {
    /// The spec was malformed or referenced unknown names.
    Spec(SpecError),
    /// The simulator rejected a configuration or run.
    Sim(String),
    /// Report persistence failed.
    Io(std::io::Error),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Spec(e) => write!(f, "{e}"),
            EvalError::Sim(e) => write!(f, "simulation error: {e}"),
            EvalError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<SpecError> for EvalError {
    fn from(e: SpecError) -> Self {
        EvalError::Spec(e)
    }
}

impl From<std::io::Error> for EvalError {
    fn from(e: std::io::Error) -> Self {
        EvalError::Io(e)
    }
}

fn sim_err(e: impl fmt::Display) -> EvalError {
    EvalError::Sim(e.to_string())
}

/// Flat metric map of one executed scenario.
pub type Metrics = BTreeMap<String, f64>;

/// Cross-cutting run overrides the CLI threads into a suite run, applied
/// uniformly to every scenario on top of its spec'd configuration.
#[derive(Debug, Clone, Default)]
pub struct EvalOverrides {
    /// Replaces each scenario's workload/sampling seed (the CLI's
    /// `--seed`); two runs with the same override are bit-identical.
    pub seed: Option<u64>,
    /// Worker count for serving scenarios (the CLI's `--jobs`); never
    /// changes results, only wall-clock.
    pub jobs: Option<usize>,
    /// Replaces each scenario's MHA cost model (the CLI's
    /// `--cost-model`), e.g. to trace-price a suite authored for
    /// analytic pricing.
    pub cost_model: Option<CostModelKind>,
    /// Directory of the persistent replay cache (the CLI's
    /// `--memo-cache`): trace-priced scenarios share one on-disk memo,
    /// so a rerun skips every cold replay and reports a 100% disk hit
    /// rate. Only consulted under trace pricing.
    pub memo_cache: Option<PathBuf>,
}

/// One executed scenario: its name plus every metric the run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRun {
    /// Scenario name (matches the spec).
    pub name: String,
    /// What was measured ("serving" or "throughput").
    pub kind: &'static str,
    /// Metric name -> observed value.
    pub metrics: Metrics,
}

impl ScenarioRun {
    /// Looks up one metric.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }
}

/// Executes every scenario of a suite, in file order, under `opts`
/// (seed, worker count, cost model, persistent replay cache).
///
/// `opts.seed` (the CLI's `--seed`) replaces each scenario's spec'd
/// workload/sampling seed, keeping everything else fixed — two runs with
/// the same override are bit-identical.
///
/// `opts.jobs` bounds how many replica streams each serving scenario's
/// [`FleetSim`](neupims_core::fleet::FleetSim) advances concurrently
/// between dispatch points; `None` keeps the fleet's default
/// ([`std::thread::available_parallelism`]). Results are bit-identical
/// for every worker count — replicas share no state between dispatch
/// barriers — so `--seed` + `--jobs` determinism holds regardless of `N`.
///
/// # Errors
///
/// Returns [`EvalError`] when calibration, backend construction, or a
/// simulation run fails. A scenario that *runs* but misses its golden
/// expectations is not an error here — that's the scorer's verdict.
pub fn run_suite_with_opts(
    suite: &SuiteSpec,
    opts: &EvalOverrides,
) -> Result<Vec<ScenarioRun>, EvalError> {
    suite
        .scenarios
        .iter()
        .map(|s| run_scenario(s, opts))
        .collect()
}

/// Executes one scenario under `opts`.
fn run_scenario(spec: &ScenarioSpec, opts: &EvalOverrides) -> Result<ScenarioRun, EvalError> {
    let seed = opts.seed.unwrap_or(spec.seed);
    let mut system = spec.system.clone();
    if let Some(kind) = opts.cost_model {
        system.cost_model = kind;
    }
    let memo = system
        .trace_memo(opts.memo_cache.as_deref())
        .map_err(sim_err)?;
    let metrics = match spec.kind {
        ScenarioKind::Throughput => run_throughput(spec, &system, seed, memo.as_ref())?,
        ScenarioKind::Serving => run_serving(spec, &system, seed, opts.jobs, memo.as_ref())?,
    };
    Ok(ScenarioRun {
        name: spec.name.clone(),
        kind: spec.kind.name(),
        metrics,
    })
}

fn run_throughput(
    spec: &ScenarioSpec,
    system: &SystemSpec,
    seed: u64,
    memo: Option<&TraceMemo>,
) -> Result<Metrics, EvalError> {
    let (tokens_per_sec, util) = system
        .warm_means(spec.dataset, spec.batch, seed, spec.samples, memo)
        .map_err(sim_err)?;
    let mut metrics = Metrics::new();
    metrics.insert("tokens_per_sec".into(), tokens_per_sec);
    metrics.insert("batch".into(), spec.batch as f64);
    if system.sharding_requested() {
        let devices = system.tp.unwrap_or(1) as u64 * system.pp.unwrap_or(1) as u64;
        metrics.insert("devices".into(), devices as f64);
    } else if !is_gpu_name(&system.backend) {
        // Utilization is measured against the spec hardware's NPU and DRAM
        // peaks, which a GPU roofline does not run on.
        metrics.insert("npu_utilization".into(), util.npu);
        metrics.insert("pim_utilization".into(), util.pim);
        metrics.insert("bandwidth_utilization".into(), util.bandwidth);
        metrics.insert("npu_stage_utilization".into(), util.npu_stage);
        metrics.insert("pim_stage_utilization".into(), util.pim_stage);
    }
    Ok(metrics)
}

/// Executes a serving scenario: the scenario's system, built as a
/// dispatched fleet or (with any orchestration key) the meta-orchestrator,
/// serving the scenario's generated workload.
fn run_serving(
    spec: &ScenarioSpec,
    system: &SystemSpec,
    seed: u64,
    jobs: Option<usize>,
    memo: Option<&TraceMemo>,
) -> Result<Metrics, EvalError> {
    let workload = spec
        .workload
        .as_ref()
        .expect("serving scenarios carry a workload");
    let mut built = system.build(memo, jobs).map_err(sim_err)?;

    let mut rng = StdRng::seed_from_u64(seed);
    let generated = neupims_workload::ScenarioWorkload {
        arrival: workload.arrival,
        tenants: workload.tenants.clone(),
        requests: workload.requests,
    }
    .try_generate(&mut rng)
    .map_err(sim_err)?;
    for (i, req) in generated.iter().enumerate() {
        let output = match workload.output_cap {
            Some(cap) => req.output_len.min(cap).max(1),
            None => req.output_len,
        };
        let fleet_req = FleetRequest {
            id: request_id(i).map_err(sim_err)?,
            input_len: req.input_len,
            output_len: output,
            arrival: req.arrival,
        };
        built.submit(fleet_req, req.tenant).map_err(sim_err)?;
    }

    run_system(built, memo.is_some())
}

/// Runs a built serving system with its requests submitted and flattens
/// the outcome into the metric map the scorer grades (an orchestrator's
/// adds its cost, scaling and `tenant_<name>_*` keys). Both eval's
/// serving scenarios and the CLI's `serve`/`fleet` end here.
///
/// With `shared_memo` (the replicas price through one trace replay
/// memo), a fleet first replays every reachable cold context bucket in
/// parallel: a no-op on warm or disk-restored memos that never changes
/// results (pinned by the trace parity tests).
///
/// # Errors
///
/// [`EvalError::Sim`] when the run fails.
pub fn run_system(system: System, shared_memo: bool) -> Result<Metrics, EvalError> {
    match system {
        System::Fleet(mut fleet) => {
            if shared_memo {
                fleet.warm_replay();
            }
            Ok(serving_metrics(&fleet.run().map_err(sim_err)?))
        }
        System::Orchestrator(mut orch) => Ok(orchestrated_metrics(&orch.run().map_err(sim_err)?)),
    }
}

/// Flattens an orchestrated outcome: every fleet metric, plus the
/// orchestration aggregates and a `tenant_<name>_*` namespace per tenant.
fn orchestrated_metrics(out: &OrchestratorOutcome) -> Metrics {
    let mut m = serving_metrics(&out.fleet);
    m.insert("goodput_per_cost".into(), out.goodput_per_cost());
    m.insert(
        "replica_mcycles_on".into(),
        out.replica_cycles_on as f64 / 1e6,
    );
    m.insert("warmups".into(), out.warmups as f64);
    m.insert("scale_ups".into(), out.scale_ups as f64);
    m.insert("scale_downs".into(), out.scale_downs as f64);
    m.insert("peak_replicas".into(), out.peak_replicas as f64);
    m.insert("shed".into(), out.shed as f64);
    m.insert("deferred".into(), out.deferred as f64);
    for t in &out.tenants {
        let key = |suffix: &str| format!("tenant_{}_{suffix}", t.name);
        m.insert(key("submitted"), t.submitted as f64);
        m.insert(key("admitted"), t.admitted as f64);
        m.insert(key("deferred"), t.deferred as f64);
        m.insert(key("shed"), t.shed as f64);
        m.insert(key("completed"), t.completed as f64);
        m.insert(key("goodput_tokens"), t.goodput_tokens as f64);
        m.insert(key("slo_attainment"), t.slo_attainment());
        m.insert(key("ttft_p99_ms"), t.ttft_percentile(99.0) as f64 / 1e6);
        m.insert(key("tpot_p99_ms"), t.tpot_percentile(99.0) / 1e6);
    }
    m
}

/// Flattens a fleet outcome into the scorer's metric namespace.
fn serving_metrics(out: &FleetOutcome) -> Metrics {
    let mut m = Metrics::new();
    m.insert("submitted".into(), out.submitted as f64);
    m.insert("completed".into(), out.completed as f64);
    m.insert("dropped".into(), out.dropped as f64);
    m.insert("tokens".into(), out.tokens as f64);
    m.insert("tokens_per_sec".into(), out.tokens_per_sec());
    m.insert("goodput".into(), out.goodput());
    m.insert("slo_attainment".into(), out.slo_attainment());
    m.insert("makespan_ms".into(), out.makespan as f64 / 1e6);
    let iterations: u64 = out.replicas.iter().map(|r| r.iterations).sum();
    m.insert("iterations".into(), iterations as f64);
    m.insert("preemptions".into(), out.preemptions as f64);
    m.insert("restores".into(), out.restores as f64);
    m.insert(
        "preemption_stall_ms".into(),
        out.preemption_stall_cycles as f64 / 1e6,
    );
    m.insert(
        "restore_overhead_ms".into(),
        out.restore_overhead_cycles as f64 / 1e6,
    );
    m.insert(
        "latency_p50_ms".into(),
        out.latency_percentile(50.0) as f64 / 1e6,
    );
    m.insert(
        "latency_p99_ms".into(),
        out.latency_percentile(99.0) as f64 / 1e6,
    );
    m.insert("ttft_p50_ms".into(), out.ttft_percentile(50.0) as f64 / 1e6);
    m.insert("ttft_p99_ms".into(), out.ttft_percentile(99.0) as f64 / 1e6);
    m.insert("tpot_p50_ms".into(), out.tpot_percentile(50.0) / 1e6);
    m.insert("tpot_p99_ms".into(), out.tpot_percentile(99.0) / 1e6);
    m.insert(
        "prefill_on_device_ms".into(),
        out.prefill_cycles_on_device as f64 / 1e6,
    );
    m.insert(
        "overlap_hidden_ms".into(),
        out.overlap_hidden_cycles as f64 / 1e6,
    );
    m.insert("overlap_efficiency".into(), out.overlap_efficiency());
    let peak_kv = out
        .replicas
        .iter()
        .map(|r| r.peak_kv_utilization)
        .fold(0.0, f64::max);
    m.insert("peak_kv_utilization".into(), peak_kv);
    if let Some(trace) = &out.pim_trace {
        let dram = &trace.stats;
        m.insert("dram_act".into(), (dram.acts + dram.pim_acts) as f64);
        m.insert(
            "dram_pre".into(),
            (dram.precharges + dram.pim_precharges) as f64,
        );
        m.insert("dram_ref".into(), dram.refreshes as f64);
        m.insert("row_buffer_hit_rate".into(), trace.stats.hit_rate());
        m.insert("memo_hit_rate".into(), trace.memo_hit_rate());
        m.insert("disk_hit_rate".into(), trace.disk_hit_rate());
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SuiteSpec;

    /// Runs `suite` under the default overrides, or the seed `seed`.
    fn run_suite(suite: &SuiteSpec, seed: Option<u64>) -> Result<Vec<ScenarioRun>, EvalError> {
        let opts = EvalOverrides {
            seed,
            ..Default::default()
        };
        run_suite_with_opts(suite, &opts)
    }

    const TINY: &str = r#"
[suite]
name = "tiny"

[[scenario]]
name = "serve"
requests = 6
seed = 5
max-batch = 8
rate = 4.0
output-cap = 24

[[scenario]]
name = "thr"
kind = "throughput"
batch = 32
samples = 1

[[scenario]]
name = "thr-gpu"
kind = "throughput"
backend = "gpu"
batch = 32
samples = 1
"#;

    #[test]
    fn serving_and_throughput_scenarios_run() {
        let suite = SuiteSpec::parse(TINY).unwrap();
        let runs = run_suite(&suite, None).unwrap();
        assert_eq!(runs.len(), 3);
        let serve = &runs[0];
        assert_eq!(serve.kind, "serving");
        assert_eq!(serve.metric("submitted"), Some(6.0));
        assert!(serve.metric("tokens_per_sec").unwrap() > 0.0);
        assert!(serve.metric("completed").unwrap() > 0.0);
        let (thr, gpu) = (&runs[1], &runs[2]);
        assert_eq!(thr.kind, "throughput");
        assert!(thr.metric("tokens_per_sec").unwrap() > 0.0);
        assert!(gpu.metric("tokens_per_sec").unwrap() > 0.0);
        // Utilization is measured against the Table 2 NPU's and DRAM's
        // peaks, so a GPU scenario reports none of it.
        for key in ["npu", "pim", "bandwidth", "npu_stage", "pim_stage"] {
            let key = format!("{key}_utilization");
            assert!(thr.metric(&key).is_some(), "{key}");
            assert_eq!(gpu.metric(&key), None, "{key}");
        }
    }

    #[test]
    fn seed_override_is_deterministic() {
        let suite = SuiteSpec::parse(TINY).unwrap();
        let a = run_suite(&suite, Some(99)).unwrap();
        let b = run_suite(&suite, Some(99)).unwrap();
        assert_eq!(a, b);
        let c = run_suite(&suite, Some(100)).unwrap();
        // A different seed shifts arrivals and lengths; at least one
        // serving metric should move.
        assert_ne!(a[0].metrics, c[0].metrics);
    }

    fn seeded_jobs(seed: u64, jobs: usize) -> EvalOverrides {
        EvalOverrides {
            seed: Some(seed),
            jobs: Some(jobs),
            ..Default::default()
        }
    }

    #[test]
    fn jobs_count_never_changes_results() {
        let suite = SuiteSpec::parse(TINY).unwrap();
        let serial = run_suite_with_opts(&suite, &seeded_jobs(42, 1)).unwrap();
        for jobs in [2, 4, 16] {
            let parallel = run_suite_with_opts(&suite, &seeded_jobs(42, jobs)).unwrap();
            assert_eq!(serial, parallel, "--jobs {jobs} changed eval results");
        }
    }

    /// The cost-model override trace-prices a suite authored for
    /// analytic pricing, and a `--memo-cache` rerun serves every first
    /// bucket touch from disk (the CI smoke job greps for the resulting
    /// 100% disk hit rate).
    #[test]
    fn memo_cache_rerun_reports_full_disk_hits() {
        let dir = std::env::temp_dir().join(format!("neupims-eval-memo-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = |cache: bool| EvalOverrides {
            seed: Some(7),
            cost_model: Some(CostModelKind::TraceDriven),
            memo_cache: cache.then(|| dir.clone()),
            ..Default::default()
        };
        let suite = SuiteSpec::parse(TINY).unwrap();

        let cold = run_suite_with_opts(&suite, &opts(true)).unwrap();
        let serve = &cold[0];
        assert!(
            serve.metric("memo_hit_rate").is_some(),
            "trace override must surface the replay-memo metrics"
        );
        assert_eq!(
            serve.metric("disk_hit_rate"),
            Some(0.0),
            "first run is cold"
        );

        let warm = run_suite_with_opts(&suite, &opts(true)).unwrap();
        assert_eq!(
            warm[0].metric("disk_hit_rate"),
            Some(1.0),
            "a rerun over the populated cache must never replay"
        );

        // Persistence is pure performance: every *serving* metric is
        // bit-identical to an uncached trace-priced run. The memo
        // counter metrics legitimately differ (a disk-restored memo
        // replays nothing and only pays disk hits for buckets serving
        // actually touches, while a cold warmup replays the whole
        // reachable lattice), and so do the DRAM command counts of the
        // streams replayed, so they are excluded from the comparison.
        let strip = |m: &Metrics| {
            let mut m = m.clone();
            for key in [
                "disk_hit_rate",
                "memo_hit_rate",
                "row_buffer_hit_rate",
                "dram_act",
                "dram_pre",
                "dram_ref",
            ] {
                m.remove(key);
            }
            m
        };
        let uncached = run_suite_with_opts(&suite, &opts(false)).unwrap();
        for (a, b) in warm.iter().zip(&uncached) {
            assert_eq!(strip(&a.metrics), strip(&b.metrics), "{}", a.name);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An orchestrated scenario surfaces the goodput-per-cost and
    /// per-tenant namespaces, conserves admission labels, and stays
    /// `--jobs`-deterministic like every other serving run.
    #[test]
    fn orchestrated_scenarios_surface_tenant_metrics() {
        let text = r#"
[suite]
name = "orch-tiny"

[[scenario]]
name = "autoscaled"
requests = 12
seed = 4
replicas = 3
backend = "gpu"
max-batch = 8
autoscale = "reactive"
router = "capability"
output-cap = 8
rate = 6.0

[[scenario.tenant]]
name = "chat"
priority = 220
input = ["lognormal", 60.0, 0.5]
output = ["fixed", 8]

[[scenario.tenant]]
name = "batch"
priority = 40
input = ["uniform", 256, 512]
output = ["fixed", 8]
"#;
        let suite = SuiteSpec::parse(text).unwrap();
        let runs = run_suite(&suite, None).unwrap();
        let run = &runs[0];
        assert!(run.metric("goodput_per_cost").unwrap() >= 0.0);
        assert!(run.metric("replica_mcycles_on").unwrap() > 0.0);
        assert!(run.metric("peak_replicas").unwrap() <= 3.0);
        for tenant in ["chat", "batch"] {
            let get = |s: &str| run.metric(&format!("tenant_{tenant}_{s}")).unwrap();
            assert_eq!(
                get("admitted") + get("deferred") + get("shed"),
                get("submitted"),
                "conservation broke for {tenant}"
            );
        }
        assert_eq!(
            run.metric("tenant_chat_submitted").unwrap()
                + run.metric("tenant_batch_submitted").unwrap(),
            12.0
        );
        let serial = run_suite_with_opts(&suite, &seeded_jobs(8, 1)).unwrap();
        let parallel = run_suite_with_opts(&suite, &seeded_jobs(8, 4)).unwrap();
        assert_eq!(serial, parallel, "--jobs changed orchestrated results");
    }

    #[test]
    fn memory_overrides_shrink_the_kv_cache() {
        let text = r#"
[suite]
name = "pressure"

[[scenario]]
name = "tight"
requests = 8
seed = 3
max-batch = 8
channels = 4
kv-mib-per-channel = 48
output-cap = 32
rate = 6.0
"#;
        let suite = SuiteSpec::parse(text).unwrap();
        let runs = run_suite(&suite, None).unwrap();
        assert!(runs[0].metric("peak_kv_utilization").unwrap() > 0.0);
    }
}
