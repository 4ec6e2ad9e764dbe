//! Typed scenario/suite specs, parsed from `scenarios/*.toml`.
//!
//! A **suite** is one TOML file: a `[suite]` header, one or more
//! `[[scenario]]` experiments, and optional `[[compare]]` cross-scenario
//! ratio checks. Each scenario is either
//!
//! * `kind = "throughput"` — warm-batch decode throughput of one backend
//!   (the Figure 12 / Table 3 quantity), or
//! * `kind = "serving"` — an arrival-driven serving run (single replica
//!   or a dispatched fleet) over a declarative workload: an arrival
//!   process from [`neupims_workload::scenario`], per-tenant length
//!   distributions, and optional tight-memory hardware overrides. The
//!   `autoscale` / `router` / `min-replicas` keys lift the run into the
//!   meta-orchestrator (tenant SLO classes via per-tenant `priority` /
//!   `slo-ttft-ms` / `slo-tpot-ms` keys, admission control, capability
//!   routing), surfacing `goodput_per_cost` and per-tenant metrics.
//!
//! Golden expectations live in `[[scenario.expect]]` blocks (absolute
//! value ± relative tolerance, or min/max bounds) and `[[compare]]`
//! blocks (ratio of one scenario's metric over another's) — the checks
//! the scorer grades into pass/warn/fail. See `docs/EVAL.md` for the
//! full schema and `scenarios/` for the shipped suites.

use std::fmt;

use neupims_core::backend::{is_backend_name, ALL_BACKEND_NAMES};
use neupims_core::fleet::{policy_from_name, POLICY_NAMES};
use neupims_core::interconnect::{interconnect_from_name, INTERCONNECT_NAMES};
use neupims_core::orchestrator::{
    autoscale_from_name, router_from_name, TenantClass as SloClass, AUTOSCALE_NAMES, ROUTER_NAMES,
};
use neupims_core::preempt::{preemption_from_name, PREEMPTION_NAMES};
use neupims_core::scheduler::{scheduler_from_name, SCHEDULER_NAMES};
use neupims_core::serving::SloTargets;
pub use neupims_core::system::SystemSpec;
use neupims_core::system::DEFAULT_TENANT_PRIORITY;
use neupims_sched::{CostModelKind, COST_MODEL_NAMES};
use neupims_types::{Cycle, LlmConfig};
use neupims_workload::scenario::{ArrivalProcess, LengthDistribution, TenantClass, TenantMix};
use neupims_workload::Dataset;

use crate::toml::{parse as parse_toml, Table, Value};

/// A spec-level failure: schema violations, unknown names, bad bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "spec error: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

fn serr<T>(msg: impl Into<String>) -> Result<T, SpecError> {
    Err(SpecError(msg.into()))
}

/// How severe a failed check is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Severity {
    /// A violation fails the suite (non-zero exit; CI gate).
    #[default]
    Fail,
    /// A violation is reported but does not fail the suite.
    Warn,
}

impl Severity {
    /// Canonical name.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Fail => "fail",
            Severity::Warn => "warn",
        }
    }
}

/// The acceptance band of one expectation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Observed must be within `value · (1 ± tol)`.
    Golden {
        /// The golden value.
        value: f64,
        /// Relative tolerance (0.10 = ±10%).
        tol: f64,
    },
    /// Observed must be at least this.
    Min(f64),
    /// Observed must be at most this.
    Max(f64),
    /// Observed must be within `[lo, hi]`.
    Range(f64, f64),
}

impl Bound {
    /// Whether `observed` satisfies the bound.
    pub fn holds(&self, observed: f64) -> bool {
        match *self {
            Bound::Golden { value, tol } => {
                let band = value.abs() * tol;
                (observed - value).abs() <= band
            }
            Bound::Min(lo) => observed >= lo,
            Bound::Max(hi) => observed <= hi,
            Bound::Range(lo, hi) => observed >= lo && observed <= hi,
        }
    }

    /// Human-readable band, for report rows.
    pub fn describe(&self) -> String {
        match *self {
            Bound::Golden { value, tol } => format!("{value:.4} ±{:.0}%", tol * 100.0),
            Bound::Min(lo) => format!(">= {lo:.4}"),
            Bound::Max(hi) => format!("<= {hi:.4}"),
            Bound::Range(lo, hi) => format!("[{lo:.4}, {hi:.4}]"),
        }
    }
}

/// One golden expectation on a scenario metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Expectation {
    /// Metric key (a runner-produced metric name).
    pub metric: String,
    /// The acceptance band.
    pub bound: Bound,
    /// What a violation means for the suite verdict.
    pub severity: Severity,
}

/// A cross-scenario ratio check: `numerator.metric / denominator.metric`
/// against a bound — how Figure 12's "NeuPIMs is 1.6x over NPU+PIM"
/// claims are spec'd.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareSpec {
    /// Check label (surfaced in reports).
    pub name: String,
    /// Metric key read from both scenarios.
    pub metric: String,
    /// Scenario name providing the numerator.
    pub numerator: String,
    /// Scenario name providing the denominator.
    pub denominator: String,
    /// The acceptance band on the ratio.
    pub bound: Bound,
    /// What a violation means for the suite verdict.
    pub severity: Severity,
}

/// What a scenario measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// Arrival-driven serving (single replica or fleet).
    Serving,
    /// Warm-batch decode throughput (the Figure 12 bars).
    Throughput,
}

impl ScenarioKind {
    /// Canonical name.
    pub fn name(self) -> &'static str {
        match self {
            ScenarioKind::Serving => "serving",
            ScenarioKind::Throughput => "throughput",
        }
    }

    /// Whether a scenario of this kind reads `key`, one of the
    /// [`SHARED_KEYS`] or a `[[scenario]]` key: warm batches have no
    /// arrivals, tenants, serving loop or fleet, and serving has no warm
    /// batches.
    pub fn reads(self, key: &str) -> bool {
        match self {
            ScenarioKind::Throughput => !matches!(
                key,
                "scheduler"
                    | "chunk-tokens"
                    | "preemption"
                    | "swap-gbps"
                    | "replicas"
                    | "policy"
                    | "max-batch"
                    | "slo-ttft-ms"
                    | "slo-tpot-ms"
                    | "autoscale"
                    | "router"
                    | "min-replicas"
                    | "requests"
                    | "rate"
                    | "output-cap"
                    | "arrival"
                    | "tenant"
            ),
            ScenarioKind::Serving => !matches!(key, "batch" | "samples"),
        }
    }
}

/// The workload half of a serving scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Total requests to generate and submit.
    pub requests: usize,
    /// Workload RNG seed (CLI `--seed` overrides).
    pub seed: u64,
    /// Arrival process.
    pub arrival: ArrivalProcess,
    /// Tenant mix supplying per-request lengths (its classes align with
    /// the system's orchestrator tenants).
    pub tenants: TenantMix,
    /// Cap on sampled output lengths (keeps suites fast), if any.
    pub output_cap: Option<u32>,
}

/// One named experiment of a suite.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (unique within the suite; compare blocks reference
    /// it).
    pub name: String,
    /// What the scenario measures.
    pub kind: ScenarioKind,
    /// The system under test, its hardware included: the scenario-only
    /// `channels` and `kv-mib-per-channel` keys (tight-KV pressure
    /// scenarios) override its memory system.
    pub system: SystemSpec,
    /// The workload (serving scenarios only).
    pub workload: Option<WorkloadSpec>,
    /// Warm-batch size (throughput scenarios).
    pub batch: usize,
    /// Warm batches averaged (throughput scenarios).
    pub samples: usize,
    /// Dataset of throughput warm batches.
    pub dataset: Dataset,
    /// RNG seed of throughput sampling.
    pub seed: u64,
    /// Golden expectations on this scenario's metrics.
    pub expects: Vec<Expectation>,
}

/// A parsed suite: the unit `neupims-sim eval <suite>` executes.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteSpec {
    /// Suite name (the file stem by convention).
    pub name: String,
    /// One-line description.
    pub description: String,
    /// The experiments, in file order.
    pub scenarios: Vec<ScenarioSpec>,
    /// Cross-scenario ratio checks.
    pub compares: Vec<CompareSpec>,
}

impl SuiteSpec {
    /// Parses a suite from TOML text.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] on TOML syntax errors, schema violations,
    /// unknown names, or compare blocks referencing missing scenarios.
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        let root = parse_toml(text).map_err(|e| SpecError(e.to_string()))?;
        known_keys(&root, "the suite file", &["suite", "scenario", "compare"])?;
        let suite = table(&root, "suite")?;
        known_keys(suite, "[suite]", &["name", "description"])?;
        let name = string(suite, "name")?;
        let description = opt_string(suite, "description")?.unwrap_or_default();

        let mut scenarios = Vec::new();
        for (i, sc) in tables_of(&root, "scenario")?.iter().enumerate() {
            scenarios.push(
                parse_scenario(sc)
                    .map_err(|e| SpecError(format!("scenario #{}: {}", i + 1, e.0)))?,
            );
        }
        if scenarios.is_empty() {
            return serr("a suite needs at least one [[scenario]]");
        }
        let mut seen = std::collections::BTreeSet::new();
        for s in &scenarios {
            if !seen.insert(s.name.clone()) {
                return serr(format!("duplicate scenario name {:?}", s.name));
            }
        }

        let mut compares = Vec::new();
        for (i, cmp) in tables_of(&root, "compare")?.iter().enumerate() {
            let c = parse_compare(cmp)
                .map_err(|e| SpecError(format!("compare #{}: {}", i + 1, e.0)))?;
            for side in [&c.numerator, &c.denominator] {
                if !seen.contains(side) {
                    return serr(format!(
                        "compare {:?} references unknown scenario {side:?}",
                        c.name
                    ));
                }
            }
            compares.push(c);
        }

        Ok(SuiteSpec {
            name,
            description,
            scenarios,
            compares,
        })
    }
}

// ------------------------------------------------------------ field access

fn table<'a>(t: &'a Table, key: &str) -> Result<&'a Table, SpecError> {
    match t.get(key) {
        Some(Value::Table(inner)) => Ok(inner),
        Some(v) => serr(format!("[{key}] must be a table, got {}", v.type_name())),
        None => serr(format!("missing [{key}] table")),
    }
}

/// The `[[key]]` elements, or empty when absent.
fn tables_of<'a>(t: &'a Table, key: &str) -> Result<Vec<&'a Table>, SpecError> {
    match t.get(key) {
        None => Ok(Vec::new()),
        Some(Value::Array(items)) => items
            .iter()
            .map(|v| {
                v.as_table()
                    .ok_or_else(|| SpecError(format!("[[{key}]] elements must be tables")))
            })
            .collect(),
        Some(v) => serr(format!(
            "[[{key}]] must be an array of tables, got {}",
            v.type_name()
        )),
    }
}

fn string(t: &Table, key: &str) -> Result<String, SpecError> {
    opt_string(t, key)?.ok_or_else(|| SpecError(format!("missing key {key:?}")))
}

fn opt_string(t: &Table, key: &str) -> Result<Option<String>, SpecError> {
    opt(t, key, |k, v| text(k, v).map(str::to_owned))
}

/// `key`'s value in `t` read by `rule`, or `None` when absent.
fn opt<T>(
    t: &Table,
    key: &str,
    rule: impl Fn(&str, &Value) -> Result<T, SpecError>,
) -> Result<Option<T>, SpecError> {
    t.get(key).map(|v| rule(key, v)).transpose()
}

/// Rejects a key of `t` outside `known`, the keys table `header` reads: a
/// typo'd key is an error, never a silent default.
fn known_keys(t: &Table, header: &str, known: &[&str]) -> Result<(), SpecError> {
    match t.keys().find(|k| !known.contains(&k.as_str())) {
        Some(key) => serr(format!("unknown key {key:?} in {header}")),
        None => Ok(()),
    }
}

// ------------------------------------------------------------- value rules

fn text<'a>(key: &str, v: &'a Value) -> Result<&'a str, SpecError> {
    v.as_str()
        .ok_or_else(|| SpecError(format!("{key:?} must be a string, got {}", v.type_name())))
}

fn number(key: &str, v: &Value) -> Result<f64, SpecError> {
    v.as_f64()
        .ok_or_else(|| SpecError(format!("{key:?} must be a number, got {}", v.type_name())))
}

/// A positive, finite number: the rule for rates, weights, periods,
/// bandwidths and SLO targets. NaN and the infinities fail, where a bare
/// `value <= 0.0` test lets NaN through.
fn positive(key: &str, v: &Value) -> Result<f64, SpecError> {
    match number(key, v)? {
        x if x.is_finite() && x > 0.0 => Ok(x),
        x => serr(format!("{key:?} must be a positive finite number, got {x}")),
    }
}

fn integer(key: &str, v: &Value) -> Result<u64, SpecError> {
    match v {
        Value::Int(n) => u64::try_from(*n)
            .map_err(|_| SpecError(format!("{key:?} must be a non-negative integer, got {n}"))),
        _ => serr(format!(
            "{key:?} must be a non-negative integer, got {}",
            v.type_name()
        )),
    }
}

/// A count: at least 1. A zero is an error naming the key, never a
/// silent 1.
fn count(key: &str, v: &Value) -> Result<usize, SpecError> {
    match integer(key, v)? {
        0 => serr(format!("{key:?} must be a positive integer, got 0")),
        n => Ok(n as usize),
    }
}

/// The largest warm batch a throughput run prices: far past the paper's
/// 512, and small enough that its context lengths fit in memory.
const MAX_BATCH: usize = 1 << 16;

/// The most requests a serving run draws: request ids are `0..requests`
/// and each must fit its `u32`.
const MAX_REQUESTS: usize = 1 << 32;

/// A count of at most `max`.
fn count_at_most(key: &str, v: &Value, max: usize) -> Result<usize, SpecError> {
    match count(key, v)? {
        n if n > max => serr(format!("{key:?} = {n} exceeds the maximum {max}")),
        n => Ok(n),
    }
}

/// An integer that fits a `u32`.
fn int_u32(key: &str, v: &Value) -> Result<u32, SpecError> {
    let n = integer(key, v)?;
    u32::try_from(n)
        .map_err(|_| SpecError(format!("{key:?} = {n} exceeds the maximum {}", u32::MAX)))
}

/// A degree or budget: a count that fits a `u32`.
fn degree(key: &str, v: &Value) -> Result<u32, SpecError> {
    count(key, v)?;
    int_u32(key, v)
}

/// A name `parse` resolves, with the registry's canonical names `known`
/// in the error otherwise.
fn lookup<T>(
    key: &str,
    v: &Value,
    known: &[&str],
    parse: impl Fn(&str) -> Option<T>,
) -> Result<T, SpecError> {
    let name = text(key, v)?;
    parse(name).ok_or_else(|| {
        SpecError(format!(
            "unknown {key} {name:?} (expected one of [{}])",
            known.join(", ")
        ))
    })
}

/// A name its registry's constructor `build` accepts, kept as written.
fn name<T, E>(
    key: &str,
    v: &Value,
    known: &[&str],
    build: impl Fn(&str) -> Result<T, E>,
) -> Result<String, SpecError> {
    lookup(key, v, known, |n| build(n).ok().map(|_| n.to_owned()))
}

/// A comma list of names cycled over the replicas, each entry one the
/// registry `valid` accepts.
fn name_list(
    key: &str,
    v: &Value,
    known: &[&str],
    valid: impl Fn(&str) -> bool,
) -> Result<String, SpecError> {
    let list = text(key, v)?;
    for entry in list.split(',') {
        let entry = Value::Str(entry.trim().to_owned());
        lookup(key, &entry, known, |n| valid(n).then_some(()))?;
    }
    Ok(list.to_owned())
}

// -------------------------------------------------------------- shared keys

/// Every setting a suite's `[[scenario]]` and the CLI (as `--<key>`)
/// both accept: the [`SystemSpec`] keys, then the shared workload keys.
/// [`Settings::set`] is the one parser of each.
pub const SHARED_KEYS: [&str; 25] = [
    "backend",
    "scheduler",
    "chunk-tokens",
    "preemption",
    "swap-gbps",
    "cost-model",
    "replicas",
    "policy",
    "max-batch",
    "model",
    "slo-ttft-ms",
    "slo-tpot-ms",
    "tp",
    "pp",
    "interconnect",
    "link-gbps",
    "autoscale",
    "router",
    "min-replicas",
    "dataset",
    "batch",
    "samples",
    "requests",
    "rate",
    "seed",
];

/// The [`SHARED_KEYS`] that run the meta-orchestrator instead of a bare
/// fleet. The orchestrator routes by `router`, so `policy` (the fleet's
/// dispatch policy) beside any of them is an error, not ignored.
pub const ORCHESTRATION_KEYS: [&str; 3] = ["autoscale", "router", "min-replicas"];

const MODEL_NAMES: [&str; 4] = ["gpt3-7b", "gpt3-13b", "gpt3-30b", "gpt3-175b"];
const DATASET_NAMES: [&str; 2] = ["sharegpt", "alpaca"];

fn model(name: &str) -> Option<LlmConfig> {
    match name.to_ascii_lowercase().as_str() {
        "gpt3-7b" | "7b" => Some(LlmConfig::gpt3_7b()),
        "gpt3-13b" | "13b" => Some(LlmConfig::gpt3_13b()),
        "gpt3-30b" | "30b" => Some(LlmConfig::gpt3_30b()),
        "gpt3-175b" | "175b" => Some(LlmConfig::gpt3_175b()),
        _ => None,
    }
}

fn dataset(name: &str) -> Option<Dataset> {
    match name.to_ascii_lowercase().as_str() {
        "sharegpt" => Some(Dataset::ShareGpt),
        "alpaca" => Some(Dataset::Alpaca),
        _ => None,
    }
}

/// The values of the [`SHARED_KEYS`]. Each front-end starts from its own
/// defaults; only parsing and validation are shared.
#[derive(Debug, Clone, PartialEq)]
pub struct Settings {
    /// The system keys.
    pub system: SystemSpec,
    /// `dataset`: where warm-batch and default request lengths come from.
    pub dataset: Dataset,
    /// `batch`: the warm-batch size, when set.
    pub batch: Option<usize>,
    /// `samples`: warm batches averaged.
    pub samples: usize,
    /// `requests`: serving requests submitted.
    pub requests: usize,
    /// `rate`: Poisson arrival rate, requests per Mcycle.
    pub rate: f64,
    /// `seed`: the workload RNG seed, when set.
    pub seed: Option<u64>,
}

impl Settings {
    /// Parses `v` into shared key `key`'s setting. Counts are
    /// positive; degrees and budgets are positive and fit a `u32`; rates,
    /// bandwidths and SLO targets are positive and finite; every name,
    /// each entry of a `backend`/`scheduler` list included, is one its
    /// registry knows. Returns `Ok(false)`, changing nothing, when `key`
    /// is not one of [`SHARED_KEYS`].
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming `key` when `v` breaks its rule.
    pub fn set(&mut self, key: &str, v: &Value) -> Result<bool, SpecError> {
        let s = &mut self.system;
        match key {
            "backend" => s.backend = name_list(key, v, &ALL_BACKEND_NAMES, is_backend_name)?,
            "scheduler" => {
                s.scheduler = name_list(key, v, &SCHEDULER_NAMES, |n| {
                    scheduler_from_name(n, 1).is_ok()
                })?;
            }
            "chunk-tokens" => s.chunk_tokens = degree(key, v)?,
            "preemption" => s.preemption = name(key, v, &PREEMPTION_NAMES, preemption_from_name)?,
            "swap-gbps" => s.swap_gbps = positive(key, v)?,
            "cost-model" => {
                s.cost_model = lookup(key, v, &COST_MODEL_NAMES, CostModelKind::from_name)?;
            }
            "replicas" => s.replicas = count(key, v)?,
            "policy" => s.policy = name(key, v, &POLICY_NAMES, policy_from_name)?,
            "max-batch" => s.max_batch = count(key, v)?,
            "model" => s.model = lookup(key, v, &MODEL_NAMES, model)?,
            "slo-ttft-ms" => s.slo_ttft_ms = positive(key, v)?,
            "slo-tpot-ms" => s.slo_tpot_ms = positive(key, v)?,
            "tp" => s.tp = Some(degree(key, v)?),
            "pp" => s.pp = Some(degree(key, v)?),
            "interconnect" => {
                s.interconnect = name(key, v, &INTERCONNECT_NAMES, |n| {
                    interconnect_from_name(n, None)
                })?;
            }
            "link-gbps" => s.link_gbps = Some(positive(key, v)?),
            "autoscale" => s.autoscale = Some(name(key, v, &AUTOSCALE_NAMES, autoscale_from_name)?),
            "router" => s.router = Some(name(key, v, &ROUTER_NAMES, router_from_name)?),
            "min-replicas" => s.min_replicas = Some(count(key, v)?),
            "dataset" => self.dataset = lookup(key, v, &DATASET_NAMES, dataset)?,
            "batch" => self.batch = Some(count_at_most(key, v, MAX_BATCH)?),
            "samples" => self.samples = count(key, v)?,
            "requests" => self.requests = count_at_most(key, v, MAX_REQUESTS)?,
            "rate" => self.rate = positive(key, v)?,
            "seed" => self.seed = Some(integer(key, v)?),
            _ => return Ok(false),
        }
        Ok(true)
    }
}

// --------------------------------------------------------------- scenarios

/// The keys of a `[[scenario]]` besides the [`SHARED_KEYS`].
const SCENARIO_KEYS: [&str; 8] = [
    "name",
    "kind",
    "channels",
    "kv-mib-per-channel",
    "output-cap",
    "arrival",
    "tenant",
    "expect",
];

fn parse_scenario(t: &Table) -> Result<ScenarioSpec, SpecError> {
    let mut shared = Settings {
        system: SystemSpec::default(),
        dataset: Dataset::ShareGpt,
        batch: None,
        samples: 4,
        requests: 32,
        rate: 3.0,
        seed: None,
    };
    for (key, value) in t {
        if !shared.set(key, value)? && !SCENARIO_KEYS.contains(&key.as_str()) {
            return serr(format!("unknown key {key:?} in [[scenario]]"));
        }
    }
    let name = string(t, "name")?;
    let kind = match opt_string(t, "kind")?.as_deref() {
        None | Some("serving") => ScenarioKind::Serving,
        Some("throughput") => ScenarioKind::Throughput,
        Some(other) => return serr(format!("unknown kind {other:?}")),
    };
    if let Some(key) = t.keys().find(|key| !kind.reads(key)) {
        return serr(format!("a {} scenario never reads {key:?}", kind.name()));
    }
    if let Some(key) = ORCHESTRATION_KEYS.iter().find(|key| t.contains_key(**key)) {
        if t.contains_key("policy") {
            return serr(format!(
                "\"policy\" does not apply beside {key:?}: the orchestrator routes by \"router\""
            ));
        }
    }
    shared.system.autoscale_floor().map_err(SpecError)?;
    let backend = &shared.system.backend;
    if kind == ScenarioKind::Throughput && backend.contains(',') {
        return serr(format!(
            "a throughput scenario prices one \"backend\", not the list {backend:?}"
        ));
    }
    let mem = &mut shared.system.hardware.mem;
    if let Some(channels) = opt(t, "channels", int_u32)? {
        mem.channels = channels;
    }
    if let Some(mib) = opt(t, "kv-mib-per-channel", integer)? {
        mem.capacity_per_channel = mib.checked_mul(1 << 20).ok_or_else(|| {
            SpecError(format!(
                "\"kv-mib-per-channel\" = {mib} overflows a byte count"
            ))
        })?;
    }

    let seed = shared.seed.unwrap_or(0xE7A1);
    let workload = match kind {
        ScenarioKind::Throughput => None,
        ScenarioKind::Serving => {
            let (workload, tenants) = parse_workload(t, &shared, seed)?;
            shared.system.tenants = tenants;
            Some(workload)
        }
    };

    let mut expects = Vec::new();
    for (i, e) in tables_of(t, "expect")?.iter().enumerate() {
        expects.push(
            parse_expect(e).map_err(|err| SpecError(format!("expect #{}: {}", i + 1, err.0)))?,
        );
    }

    Ok(ScenarioSpec {
        name,
        kind,
        system: shared.system,
        workload,
        batch: shared.batch.unwrap_or(256),
        samples: shared.samples,
        dataset: shared.dataset,
        seed,
        expects,
    })
}

/// Parses the workload half of a serving scenario, plus the orchestrator
/// tenant class of each `[[scenario.tenant]]` (SLO overrides falling back
/// to the scenario's, shares normalized from the weights).
fn parse_workload(
    t: &Table,
    shared: &Settings,
    seed: u64,
) -> Result<(WorkloadSpec, Vec<SloClass>), SpecError> {
    let arrival = match t.get("arrival") {
        None => ArrivalProcess::Poisson { rate: shared.rate },
        Some(Value::Table(_)) if t.contains_key("rate") => {
            return serr(
                "a serving scenario with a [scenario.arrival] table never reads \"rate\" \
                 (set the rate in the table)",
            )
        }
        Some(Value::Table(a)) => parse_arrival(a)?,
        Some(v) => {
            return serr(format!(
                "[scenario.arrival] must be a table, got {}",
                v.type_name()
            ))
        }
    };
    let system = &shared.system;
    let tenant_tables = tables_of(t, "tenant")?;
    if !tenant_tables.is_empty() && t.contains_key("dataset") {
        return serr(
            "a serving scenario with [[scenario.tenant]] tables never reads \"dataset\" \
             (each tenant sets its lengths)",
        );
    }
    let (tenants, mut slo_classes) = if tenant_tables.is_empty() {
        let mix = TenantMix::single(shared.dataset);
        let class = SloClass::new(
            &mix.classes()[0].name,
            system.slo(),
            DEFAULT_TENANT_PRIORITY,
            0.0,
        );
        (mix, vec![class])
    } else {
        let mut classes = Vec::new();
        let mut slo_classes = Vec::new();
        for (i, tt) in tenant_tables.iter().enumerate() {
            let (class, slo_class) = parse_tenant(tt, system)
                .map_err(|e| SpecError(format!("tenant #{}: {}", i + 1, e.0)))?;
            classes.push(class);
            slo_classes.push(slo_class);
        }
        (TenantMix::new(classes), slo_classes)
    };
    let weights: Vec<f64> = tenants.classes().iter().map(|c| c.weight).collect();
    set_shares(&mut slo_classes, &weights)?;
    let workload = WorkloadSpec {
        requests: shared.requests,
        seed,
        arrival,
        tenants,
        output_cap: opt(t, "output-cap", int_u32)?,
    };
    Ok((workload, slo_classes))
}

fn parse_arrival(a: &Table) -> Result<ArrivalProcess, SpecError> {
    known_keys(
        a,
        "[scenario.arrival]",
        &[
            "process",
            "rate",
            "burst-size",
            "amplitude",
            "period-mcycles",
            "alpha",
        ],
    )?;
    let rate = opt(a, "rate", positive)?.unwrap_or(3.0);
    match opt_string(a, "process")?.as_deref().unwrap_or("poisson") {
        "poisson" => Ok(ArrivalProcess::Poisson { rate }),
        "bursty" => Ok(ArrivalProcess::Bursty {
            rate,
            burst_size: opt(a, "burst-size", count)?.unwrap_or(8),
        }),
        "diurnal" => {
            let amplitude = opt(a, "amplitude", number)?.unwrap_or(0.8);
            if !(0.0..1.0).contains(&amplitude) {
                return serr("diurnal amplitude must be in [0, 1)");
            }
            let period_mcycles = opt(a, "period-mcycles", positive)?.unwrap_or(50.0);
            let period = (period_mcycles * 1e6) as Cycle;
            if period == 0 {
                return serr(format!(
                    "\"period-mcycles\" = {period_mcycles} is shorter than one cycle"
                ));
            }
            Ok(ArrivalProcess::Diurnal {
                rate,
                amplitude,
                period,
            })
        }
        "heavy-tailed" | "pareto" => {
            let alpha = opt(a, "alpha", number)?.unwrap_or(1.5);
            if !(alpha.is_finite() && alpha > 1.0) {
                return serr(format!(
                    "\"alpha\" must be a finite number above 1, got {alpha}"
                ));
            }
            Ok(ArrivalProcess::HeavyTailed { rate, alpha })
        }
        other => serr(format!("unknown arrival process {other:?}")),
    }
}

/// Parses a compact length-distribution array:
/// `["dataset-input", "sharegpt"]`, `["dataset-output", "alpaca"]`,
/// `["lognormal", mean, sigma]`, `["uniform", lo, hi]`, `["fixed", n]`.
fn parse_length(v: &Value, key: &str) -> Result<LengthDistribution, SpecError> {
    let Some(arr) = v.as_array() else {
        return serr(format!(
            "{key:?} must be an array like [\"lognormal\", 80.0, 0.9]"
        ));
    };
    let kind = arr
        .first()
        .and_then(Value::as_str)
        .ok_or_else(|| SpecError(format!("{key:?} must start with a distribution name")))?;
    let num = |i: usize| -> Result<f64, SpecError> {
        match arr.get(i).and_then(Value::as_f64) {
            Some(x) if x.is_finite() => Ok(x),
            Some(x) => serr(format!("{key:?}[{i}] must be finite, got {x}")),
            None => serr(format!("{key:?}[{i}] must be a number")),
        }
    };
    // A token count: whole, at least one, and below `u32::MAX` (so an
    // inclusive upper bound plus one still fits).
    let len = |i: usize| -> Result<u32, SpecError> {
        let x = num(i)?;
        if x.fract() == 0.0 && x >= 1.0 && x < f64::from(u32::MAX) {
            Ok(x as u32)
        } else {
            serr(format!(
                "{key:?}[{i}] = {x} must be a whole number of tokens in [1, {})",
                u32::MAX
            ))
        }
    };
    match kind {
        "dataset-input" | "dataset-output" => {
            let field = format!("{key}[1]");
            let Some(name) = arr.get(1) else {
                return serr(format!("{field:?} must be a dataset name"));
            };
            let d = lookup(&field, name, &DATASET_NAMES, dataset)?;
            Ok(if kind == "dataset-input" {
                LengthDistribution::DatasetInput(d)
            } else {
                LengthDistribution::DatasetOutput(d)
            })
        }
        "lognormal" => {
            let (mean, sigma) = (num(1)?, num(2)?);
            if mean < 1.0 {
                return serr(format!(
                    "{key:?}[1] = {mean} must be a mean of at least one token"
                ));
            }
            if sigma < 0.0 {
                return serr(format!("{key:?}[2] = {sigma} must be non-negative"));
            }
            Ok(LengthDistribution::LogNormal { mean, sigma })
        }
        "uniform" => {
            let (lo, hi) = (len(1)?, len(2)?);
            if lo > hi {
                return serr(format!("{key:?} bounds [{lo}, {hi}] are out of order"));
            }
            Ok(LengthDistribution::Uniform { lo, hi })
        }
        "fixed" => Ok(LengthDistribution::Fixed(len(1)?)),
        other => serr(format!("unknown length distribution {other:?}")),
    }
}

fn parse_tenant(t: &Table, system: &SystemSpec) -> Result<(TenantClass, SloClass), SpecError> {
    known_keys(
        t,
        "[[scenario.tenant]]",
        &[
            "name",
            "input",
            "output",
            "weight",
            "priority",
            "slo-ttft-ms",
            "slo-tpot-ms",
        ],
    )?;
    let name = string(t, "name")?;
    let input = match t.get("input") {
        Some(v) => parse_length(v, "input")?,
        None => return serr(format!("tenant {name:?} missing \"input\" distribution")),
    };
    let output = match t.get("output") {
        Some(v) => parse_length(v, "output")?,
        None => return serr(format!("tenant {name:?} missing \"output\" distribution")),
    };
    let (weight, slo_class) = tenant_class(&name, t, system)?;
    Ok((
        TenantClass {
            name,
            weight,
            input,
            output,
        },
        slo_class,
    ))
}

/// The orchestrator class of tenant `name` from the `weight`, `priority`,
/// `slo-ttft-ms` and `slo-tpot-ms` keys of `t` (a `[[scenario.tenant]]`,
/// or a CLI `--tenants` entry read into the same keys): a positive finite
/// weight (default 1), a priority of at most 255, and positive finite SLO
/// targets that default to `system`'s. Returns the weight beside the
/// class, whose share is left for the caller to normalize.
///
/// # Errors
///
/// Returns a [`SpecError`] naming the key that breaks its rule.
pub fn tenant_class(
    name: &str,
    t: &Table,
    system: &SystemSpec,
) -> Result<(f64, SloClass), SpecError> {
    let weight = opt(t, "weight", positive)?.unwrap_or(1.0);
    let priority = match opt(t, "priority", integer)? {
        Some(p) => u8::try_from(p).map_err(|_| {
            SpecError(format!(
                "tenant {name:?}: \"priority\" = {p} exceeds the maximum 255"
            ))
        })?,
        None => DEFAULT_TENANT_PRIORITY,
    };
    let slo = SloTargets::from_ms(
        opt(t, "slo-ttft-ms", positive)?.unwrap_or(system.slo_ttft_ms),
        opt(t, "slo-tpot-ms", positive)?.unwrap_or(system.slo_tpot_ms),
    );
    Ok((weight, SloClass::new(name, slo, priority, 0.0)))
}

/// Sets each tenant class's share to its weight (at the same index of
/// `weights`) over the weights' sum.
///
/// # Errors
///
/// Returns a [`SpecError`] naming `weight` when the weights, each finite,
/// sum past the largest finite number: every share would read 0, and a
/// weighted draw would always pick the last tenant.
pub fn set_shares(classes: &mut [SloClass], weights: &[f64]) -> Result<(), SpecError> {
    let total: f64 = weights.iter().sum();
    if !total.is_finite() {
        return serr(format!(
            "tenant \"weight\"s must sum to a finite number, got {total}"
        ));
    }
    for (class, weight) in classes.iter_mut().zip(weights) {
        class.share = weight / total;
    }
    Ok(())
}

// -------------------------------------------------------------- bounds

fn parse_severity(t: &Table) -> Result<Severity, SpecError> {
    match opt_string(t, "severity")?.as_deref() {
        None | Some("fail") => Ok(Severity::Fail),
        Some("warn") => Ok(Severity::Warn),
        Some(other) => serr(format!("unknown severity {other:?} (fail|warn)")),
    }
}

fn parse_bound(t: &Table) -> Result<Bound, SpecError> {
    let value = opt(t, "value", number)?;
    let tol = opt(t, "tol", number)?;
    let min = opt(t, "min", number)?;
    let max = opt(t, "max", number)?;
    match (value, min, max) {
        (Some(v), None, None) => {
            let tol = tol.unwrap_or(0.10);
            if tol < 0.0 {
                return serr("tol must be non-negative");
            }
            Ok(Bound::Golden { value: v, tol })
        }
        (None, Some(lo), Some(hi)) if lo <= hi => Ok(Bound::Range(lo, hi)),
        (None, Some(lo), Some(hi)) => serr(format!("empty range [{lo}, {hi}]")),
        (None, Some(lo), None) => Ok(Bound::Min(lo)),
        (None, None, Some(hi)) => Ok(Bound::Max(hi)),
        (Some(_), _, _) => serr("give either value(+tol) or min/max, not both"),
        (None, None, None) => serr("an expectation needs value, min, or max"),
    }
}

const BOUND_KEYS: [&str; 5] = ["value", "tol", "min", "max", "severity"];

fn parse_expect(t: &Table) -> Result<Expectation, SpecError> {
    known_keys(
        t,
        "[[scenario.expect]]",
        &[&["metric"][..], &BOUND_KEYS].concat(),
    )?;
    Ok(Expectation {
        metric: string(t, "metric")?,
        bound: parse_bound(t)?,
        severity: parse_severity(t)?,
    })
}

fn parse_compare(t: &Table) -> Result<CompareSpec, SpecError> {
    known_keys(
        t,
        "[[compare]]",
        &[
            &["name", "metric", "numerator", "denominator"][..],
            &BOUND_KEYS,
        ]
        .concat(),
    )?;
    Ok(CompareSpec {
        name: string(t, "name")?,
        metric: opt_string(t, "metric")?.unwrap_or_else(|| "tokens_per_sec".into()),
        numerator: string(t, "numerator")?,
        denominator: string(t, "denominator")?,
        bound: parse_bound(t)?,
        severity: parse_severity(t)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SUITE: &str = r#"
[suite]
name = "demo"
description = "exercises every spec feature"

[[scenario]]
name = "burst"
kind = "serving"
model = "gpt3-7b"
backend = "neupims"
scheduler = "interleaved"
preemption = "recompute"
max-batch = 16
requests = 24
seed = 11
channels = 4
kv-mib-per-channel = 80
output-cap = 128

[scenario.arrival]
process = "bursty"
rate = 2.0
burst-size = 8

[[scenario.tenant]]
name = "chat"
weight = 3.0
input = ["lognormal", 80.0, 0.9]
output = ["fixed", 200]

[[scenario.tenant]]
name = "bulk"
input = ["uniform", 256, 512]
output = ["dataset-output", "alpaca"]

[[scenario.expect]]
metric = "completed"
min = 20.0

[[scenario]]
name = "thr-neupims"
kind = "throughput"
backend = "neupims"
batch = 256
samples = 2

[[scenario.expect]]
metric = "tokens_per_sec"
value = 30000.0
tol = 0.2
severity = "warn"

[[compare]]
name = "ratio"
metric = "tokens_per_sec"
numerator = "thr-neupims"
denominator = "burst"
min = 0.5
"#;

    #[test]
    fn parses_every_feature() {
        let suite = SuiteSpec::parse(SUITE).unwrap();
        assert_eq!(suite.name, "demo");
        assert_eq!(suite.scenarios.len(), 2);
        let s = &suite.scenarios[0];
        assert_eq!(s.kind, ScenarioKind::Serving);
        let mem = &s.system.hardware.mem;
        assert_eq!(mem.channels, 4);
        assert_eq!(mem.capacity_per_channel, 80 << 20);
        // The rest of the hardware stays Table 2's.
        let mut table2 = neupims_types::NeuPimsConfig::table2();
        table2.mem.channels = 4;
        table2.mem.capacity_per_channel = 80 << 20;
        assert_eq!(s.system.hardware, table2);
        let w = s.workload.as_ref().unwrap();
        assert_eq!(w.requests, 24);
        assert_eq!(w.seed, 11);
        assert_eq!(
            w.arrival,
            ArrivalProcess::Bursty {
                rate: 2.0,
                burst_size: 8
            }
        );
        assert_eq!(w.tenants.classes().len(), 2);
        let tenants = &s.system.tenants;
        assert_eq!(tenants.len(), 2);
        assert_eq!(tenants[0].priority, DEFAULT_TENANT_PRIORITY);
        assert_eq!(tenants[0].slo, s.system.slo());
        assert_eq!(tenants[0].share, 0.75);
        assert_eq!(w.output_cap, Some(128));
        assert!(!s.system.orchestration_requested());
        assert_eq!(s.expects[0].bound, Bound::Min(20.0));
        let t = &suite.scenarios[1];
        assert_eq!(t.kind, ScenarioKind::Throughput);
        assert_eq!(t.expects[0].severity, Severity::Warn);
        assert_eq!(suite.compares.len(), 1);
    }

    #[test]
    fn rejects_dangling_compares_and_duplicates() {
        let bad = SUITE.replace("denominator = \"burst\"", "denominator = \"nope\"");
        let e = SuiteSpec::parse(&bad).unwrap_err();
        assert!(e.0.contains("unknown scenario"), "{e}");

        let dup = SUITE.replace("name = \"thr-neupims\"", "name = \"burst\"");
        let e = SuiteSpec::parse(&dup).unwrap_err();
        assert!(e.0.contains("duplicate scenario name"), "{e}");
    }

    #[test]
    fn bound_semantics() {
        assert!(Bound::Golden {
            value: 100.0,
            tol: 0.1
        }
        .holds(109.0));
        assert!(!Bound::Golden {
            value: 100.0,
            tol: 0.1
        }
        .holds(111.0));
        assert!(Bound::Range(1.0, 2.0).holds(1.5));
        assert!(!Bound::Range(1.0, 2.0).holds(2.5));
        assert!(Bound::Min(5.0).holds(5.0));
        assert!(Bound::Max(5.0).holds(5.0));
    }

    #[test]
    fn defaults_fill_in() {
        let minimal = "[suite]\nname = \"m\"\n[[scenario]]\nname = \"s\"\n";
        let suite = SuiteSpec::parse(minimal).unwrap();
        let s = &suite.scenarios[0];
        assert_eq!(s.kind, ScenarioKind::Serving);
        assert_eq!(s.system.backend, "neupims");
        assert_eq!(s.system.replicas, 1);
        let w = s.workload.as_ref().unwrap();
        assert!(matches!(w.arrival, ArrivalProcess::Poisson { .. }));
        assert_eq!(w.tenants.classes().len(), 1);
    }

    #[test]
    fn orchestration_keys_parse_and_validate() {
        let text = r#"
[suite]
name = "orch"

[[scenario]]
name = "autoscaled"
replicas = 8
autoscale = "predictive"
router = "capability"
min-replicas = 2

[[scenario.tenant]]
name = "chat"
priority = 220
slo-ttft-ms = 20.0
input = ["lognormal", 80.0, 0.9]
output = ["fixed", 8]

[[scenario.tenant]]
name = "batch"
priority = 40
input = ["uniform", 256, 512]
output = ["fixed", 8]
"#;
        let suite = SuiteSpec::parse(text).unwrap();
        let s = &suite.scenarios[0];
        assert!(s.system.orchestration_requested());
        assert_eq!(s.system.autoscale.as_deref(), Some("predictive"));
        assert_eq!(s.system.router.as_deref(), Some("capability"));
        assert_eq!(s.system.min_replicas, Some(2));
        let tenants = &s.system.tenants;
        assert_eq!(tenants[0].priority, 220);
        assert_eq!(
            tenants[0].slo,
            SloTargets::from_ms(20.0, s.system.slo_tpot_ms)
        );
        assert_eq!(tenants[1].priority, 40);

        // Policy names are validated at parse time, with the inventory
        // in the error.
        let bad = text.replace("\"predictive\"", "\"psychic\"");
        let e = SuiteSpec::parse(&bad).unwrap_err();
        assert!(e.0.contains("unknown autoscale"), "{e}");
        assert!(e.0.contains("static"), "{e}");
        let bad = text.replace("\"capability\"", "\"ouija\"");
        assert!(SuiteSpec::parse(&bad).unwrap_err().0.contains("router"));
        let bad = text.replace("priority = 220", "priority = 999");
        assert!(SuiteSpec::parse(&bad).unwrap_err().0.contains("255"));
    }

    /// Out-of-range integers are spec errors naming the key, never silent
    /// truncation (`tp = 2^32 + 1` used to run as tp 1) or clamping (a
    /// zero count used to run as 1).
    #[test]
    fn oversized_integers_are_rejected_by_key() {
        let minimal = "[suite]\nname = \"m\"\n[[scenario]]\nname = \"s\"\n";
        for (key, value) in [
            ("chunk-tokens", "4294967296"),
            ("channels", "4294967296"),
            ("tp", "4294967297"),
            ("pp", "4294967297"),
            ("kv-mib-per-channel", "17592186044416"),
            ("replicas", "0"),
            ("max-batch", "0"),
            ("samples", "0"),
            ("batch", "0"),
            ("batch", "65537"),
            ("batch", "5000000000"),
            ("requests", "0"),
            ("requests", "4294967297"),
            ("chunk-tokens", "0"),
            ("tp", "0"),
            ("pp", "0"),
            ("min-replicas", "0"),
            // Above the one replica: an autoscale floor is never clamped.
            ("min-replicas", "2"),
            ("bakend", "\"gpu\""),
        ] {
            let e = SuiteSpec::parse(&format!("{minimal}{key} = {value}\n")).unwrap_err();
            assert!(e.0.contains(&format!("{key:?}")), "{key}: {e}");
        }
        // The largest in-range values still parse.
        let batch = format!("{minimal}kind = \"throughput\"\nbatch = 65536\n");
        assert_eq!(SuiteSpec::parse(&batch).unwrap().scenarios[0].batch, 65536);
        let ok = format!("{minimal}tp = 4294967295\nkv-mib-per-channel = 17592186044415\n");
        let suite = SuiteSpec::parse(&ok).unwrap();
        assert_eq!(suite.scenarios[0].system.tp, Some(u32::MAX));
        assert_eq!(
            suite.scenarios[0].system.hardware.mem.capacity_per_channel,
            17_592_186_044_415 << 20
        );
    }

    /// A serving scenario touching every validated number: scenario SLOs,
    /// a diurnal arrival, and one tenant with its own SLO and lengths.
    const HOSTILE_BASE: &str = r#"
[suite]
name = "hostile"

[[scenario]]
name = "s"
slo-ttft-ms = 50.0
slo-tpot-ms = 10.0

[scenario.arrival]
process = "diurnal"
rate = 1.0
period-mcycles = 10.0

[[scenario.tenant]]
name = "t"
weight = 1.0
slo-ttft-ms = 30.0
slo-tpot-ms = 5.0
input = ["uniform", 100, 500]
output = ["lognormal", 60.0, 0.5]
"#;

    /// The error of [`HOSTILE_BASE`] with `from` replaced by `to`, checked
    /// to name `key`.
    fn hostile(from: &str, to: &str, key: &str) -> SpecError {
        SuiteSpec::parse(HOSTILE_BASE).unwrap();
        assert!(HOSTILE_BASE.contains(from), "{from}");
        let e = SuiteSpec::parse(&HOSTILE_BASE.replacen(from, to, 1)).unwrap_err();
        assert!(e.0.contains(&format!("{key:?}")), "{to}: {e}");
        e
    }

    #[test]
    fn non_finite_arrival_rate_is_rejected() {
        for rate in ["nan", "inf", "-1.0", "0.0"] {
            hostile("rate = 1.0", &format!("rate = {rate}"), "rate");
        }
        let flat = "[suite]\nname = \"m\"\n[[scenario]]\nname = \"s\"\nrate = nan\n";
        assert!(SuiteSpec::parse(flat).unwrap_err().0.contains("\"rate\""));
    }

    #[test]
    fn non_finite_diurnal_period_is_rejected() {
        for p in ["nan", "inf", "0.0"] {
            let to = format!("period-mcycles = {p}");
            hostile("period-mcycles = 10.0", &to, "period-mcycles");
        }
        // Positive but under one cycle: the generator needs a period.
        hostile(
            "period-mcycles = 10.0",
            "period-mcycles = 1e-9",
            "period-mcycles",
        );
    }

    #[test]
    fn non_finite_heavy_tail_alpha_is_rejected() {
        for alpha in ["nan", "inf", "1.0"] {
            let to = format!("process = \"heavy-tailed\"\nalpha = {alpha}");
            hostile("process = \"diurnal\"", &to, "alpha");
        }
    }

    #[test]
    fn non_finite_tenant_weight_is_rejected() {
        for w in ["nan", "inf", "-2.0"] {
            hostile("weight = 1.0", &format!("weight = {w}"), "weight");
        }
        // Two finite weights whose sum is not: every share would read 0.
        let second = "[[scenario.tenant]]\nname = \"u\"\nweight = 1e308\n\
                      input = [\"fixed\", 8]\noutput = [\"fixed\", 8]\n";
        let base = format!("{HOSTILE_BASE}{second}");
        SuiteSpec::parse(&base).unwrap();
        let e = SuiteSpec::parse(&base.replacen("weight = 1.0", "weight = 1e308", 1)).unwrap_err();
        assert!(e.0.contains("\"weight\""), "{e}");
    }

    #[test]
    fn non_finite_slo_targets_are_rejected() {
        // The scenario's own targets, then the tenant's.
        hostile("slo-ttft-ms = 50.0", "slo-ttft-ms = nan", "slo-ttft-ms");
        hostile("slo-tpot-ms = 10.0", "slo-tpot-ms = -5.0", "slo-tpot-ms");
        hostile("slo-ttft-ms = 30.0", "slo-ttft-ms = inf", "slo-ttft-ms");
        hostile("slo-tpot-ms = 5.0", "slo-tpot-ms = nan", "slo-tpot-ms");
    }

    #[test]
    fn non_positive_bandwidths_are_rejected() {
        // A zero swap bandwidth would panic when a swap is priced.
        hostile("slo-ttft-ms = 50.0", "swap-gbps = 0.0", "swap-gbps");
        hostile("slo-ttft-ms = 50.0", "link-gbps = inf", "link-gbps");
    }

    #[test]
    fn out_of_order_uniform_bounds_are_rejected() {
        let e = hostile(
            "[\"uniform\", 100, 500]",
            "[\"uniform\", 500, 100]",
            "input",
        );
        assert!(e.0.contains("out of order"), "{e}");
    }

    #[test]
    fn lengths_outside_u32_are_rejected() {
        // `hi + 1` of u32::MAX used to wrap into an empty sampling range.
        for bad in [
            "[\"uniform\", 1, 4294967295]",
            "[\"uniform\", 0, 5]",
            "[\"fixed\", 1e12]",
        ] {
            hostile("[\"uniform\", 100, 500]", bad, "input");
        }
        let max = "[\"uniform\", 1, 4294967294]";
        assert!(
            SuiteSpec::parse(&HOSTILE_BASE.replacen("[\"uniform\", 100, 500]", max, 1)).is_ok()
        );
    }

    #[test]
    fn fractional_lengths_are_rejected() {
        for bad in [
            "[\"uniform\", 1.5, 8]",
            "[\"fixed\", 7.9]",
            "[\"fixed\", nan]",
        ] {
            hostile("[\"uniform\", 100, 500]", bad, "input");
        }
    }

    #[test]
    fn non_finite_lognormal_parameters_are_rejected() {
        for bad in [
            "[\"lognormal\", nan, 0.6]",
            "[\"lognormal\", inf, 0.6]",
            "[\"lognormal\", 0.5, 0.6]",
            "[\"lognormal\", 60.0, nan]",
            "[\"lognormal\", 60.0, -1.0]",
        ] {
            hostile("[\"lognormal\", 60.0, 0.5]", bad, "output");
        }
    }

    /// Every table rejects a key its parser does not read, naming the key
    /// and the table: a typo or a retired key never grades the default.
    #[test]
    fn unknown_keys_are_rejected_by_table() {
        for (from, to, table) in [
            (
                "name = \"hostile\"",
                "name = \"hostile\"\nowner = \"x\"",
                "[suite]",
            ),
            ("slo-tpot-ms = 10.0", "dispatch = \"jsq\"", "[[scenario]]"),
            ("rate = 1.0", "rate = 1.0\nburst = 8", "[scenario.arrival]"),
            ("weight = 1.0", "wieght = 1.0", "[[scenario.tenant]]"),
        ] {
            let key = to.rsplit('\n').next().unwrap().split(' ').next().unwrap();
            let e = hostile(from, to, key);
            assert!(e.0.contains(table), "{to}: {e}");
        }
        let bad = SUITE.replace("min = 20.0", "min = 20.0\nmetrc = \"x\"");
        let e = SuiteSpec::parse(&bad).unwrap_err();
        assert!(e.0.contains("\"metrc\" in [[scenario.expect]]"), "{e}");
        let bad = SUITE.replace("min = 0.5", "min = 0.5\nseverty = \"warn\"");
        let e = SuiteSpec::parse(&bad).unwrap_err();
        assert!(e.0.contains("\"severty\" in [[compare]]"), "{e}");
        let bad = format!("{SUITE}\n[[scenarios]]\nname = \"x\"\n");
        assert!(SuiteSpec::parse(&bad)
            .unwrap_err()
            .0
            .contains("\"scenarios\""));

        // Keys a scenario's kind never reads, named with the kind.
        for (to, kind) in [
            ("slo-tpot-ms = 10.0\nbatch = 64", "serving"),
            ("slo-tpot-ms = 10.0\nsamples = 2", "serving"),
            ("slo-tpot-ms = 10.0\nrate = 2.0", "[scenario.arrival]"),
            (
                "slo-tpot-ms = 10.0\ndataset = \"alpaca\"",
                "[[scenario.tenant]]",
            ),
        ] {
            let key = to.rsplit('\n').next().unwrap().split(' ').next().unwrap();
            let e = hostile("slo-tpot-ms = 10.0", to, key);
            assert!(e.0.contains(kind), "{to}: {e}");
        }
        let throughput =
            "[suite]\nname = \"m\"\n[[scenario]]\nname = \"s\"\nkind = \"throughput\"\n";
        SuiteSpec::parse(throughput).unwrap();
        for (line, key) in [
            ("max-batch = 8", "max-batch"),
            ("requests = 8", "requests"),
            ("rate = 2.0", "rate"),
            ("scheduler = \"lump\"", "scheduler"),
            ("slo-ttft-ms = 50.0", "slo-ttft-ms"),
            ("output-cap = 64", "output-cap"),
            ("[scenario.arrival]\nprocess = \"poisson\"", "arrival"),
            // One system's warm batches: a backend list is a fleet's.
            ("backend = \"neupims,gpu\"", "backend"),
        ] {
            let e = SuiteSpec::parse(&format!("{throughput}{line}\n")).unwrap_err();
            assert!(e.0.contains(&format!("{key:?}")), "{line}: {e}");
            assert!(e.0.contains("throughput"), "{line}: {e}");
        }
    }

    /// The orchestrator routes by `router`: a fleet `policy` beside any
    /// key that runs it is an error naming `policy`.
    #[test]
    fn policy_beside_orchestration_keys_is_rejected() {
        let minimal = "[suite]\nname = \"m\"\n[[scenario]]\nname = \"s\"\n";
        SuiteSpec::parse(&format!("{minimal}policy = \"kv-aware\"\n")).unwrap();
        for line in [
            "autoscale = \"static\"",
            "router = \"capability\"",
            "min-replicas = 1",
        ] {
            SuiteSpec::parse(&format!("{minimal}{line}\n")).unwrap();
            let text = format!("{minimal}policy = \"kv-aware\"\n{line}\n");
            let e = SuiteSpec::parse(&text).unwrap_err();
            assert!(e.0.contains("\"policy\""), "{line}: {e}");
        }
    }

    #[test]
    fn expectation_shape_errors() {
        let bad = SUITE.replace("min = 20.0", "metricless = 1.0");
        assert!(SuiteSpec::parse(&bad).is_err());
    }
}
