//! One system spec, one builder.
//!
//! NeuPIMs compares NPU-only, NPU+PIM and NeuPIMs as configurations of one
//! system; this module is where every configuration becomes a running
//! system. [`SystemSpec`] is what both front-ends parse into — the CLI's
//! flags and an eval suite's `[[scenario]]` keys — and
//! [`SystemSpec::build`] turns it into a dispatched [`FleetSim`] or, when
//! any orchestration key is set, an [`Orchestrator`].
//! [`SystemSpec::replica`] builds every serving replica: each slot of
//! those, and the lone replica of the CLI's `serve`. The spec carries its
//! hardware ([`SystemSpec::hardware`], Table 2 by default), and every
//! backend it builds takes its PIM constants from [`calibrate()`] of that
//! configuration, so a configuration and its calibration cannot disagree.
//! Each construction rule lives here once: the sharding wrapper and the
//! serving shape under it, comma-separated backend/scheduler lists cycled
//! over the replicas, preemption/swap/replay-memo wiring, and the
//! autoscale replica floor.

use std::error::Error;
use std::path::Path;

use rand::rngs::StdRng;
use rand::SeedableRng;

use neupims_pim::calibrate;
use neupims_sched::{CostModelKind, TraceMemo};
use neupims_types::{LlmConfig, NeuPimsConfig, SimError};
use neupims_workload::{warm_seq_lens, Dataset};

use crate::backend::{backend_from_name_with_cost, Backend, BackendError};
use crate::fleet::{policy_from_name, FleetRequest, FleetSim};
use crate::interconnect::interconnect_from_name;
use crate::metrics::Utilization;
use crate::orchestrator::{
    autoscale_from_name, router_from_name, OrchRequest, Orchestrator, OrchestratorConfig,
    TenantClass,
};
use crate::preempt::{preemption_from_name, SwapConfig};
use crate::scheduler::scheduler_from_name;
use crate::serving::{ServingConfig, ServingSim, SloTargets};
use crate::sharding::{ClusterSpec, ShardedBackend};

/// Priority of a tenant whose spec names none (at or above the default
/// admission floor, so it is never shed).
pub const DEFAULT_TENANT_PRIORITY: u8 = 200;

/// A serving system under test: the hardware its replicas run on, their
/// backends, schedulers and memory policies, how requests reach them, and
/// the model they serve.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemSpec {
    /// The device every PIM-bearing backend is built on (and whose
    /// calibration prices it).
    pub hardware: NeuPimsConfig,
    /// Backend name(s); a comma-separated list cycles over the replicas.
    pub backend: String,
    /// Scheduler name(s); a comma-separated list cycles over the replicas.
    pub scheduler: String,
    /// Per-iteration prefill token budget of the chunked schedulers.
    pub chunk_tokens: u32,
    /// Preemption policy name.
    pub preemption: String,
    /// Swap-link bandwidth (GB/s) of the swap preemption policy.
    pub swap_gbps: f64,
    /// MHA cost model of every backend and replica scheduler.
    pub cost_model: CostModelKind,
    /// Serving replicas (the orchestrator's slot table size).
    pub replicas: usize,
    /// Fleet dispatch policy name (unused under the orchestrator).
    pub policy: String,
    /// Max decode batch per replica.
    pub max_batch: usize,
    /// Model under test.
    pub model: LlmConfig,
    /// SLO TTFT target, milliseconds.
    pub slo_ttft_ms: f64,
    /// SLO TPOT target, milliseconds.
    pub slo_tpot_ms: f64,
    /// Multi-chip tensor-parallel degree: each replica becomes its own
    /// sharded chip group when set (alone or with `pp`).
    pub tp: Option<u32>,
    /// Multi-chip pipeline-parallel degree.
    pub pp: Option<u32>,
    /// Interconnect fabric pricing the sharded collectives
    /// (`pcie` | `unified` | `noc` | `ideal`).
    pub interconnect: String,
    /// Per-link bandwidth override of the fabric, GB/s.
    pub link_gbps: Option<f64>,
    /// Autoscale policy name (`static` | `reactive` | `predictive`).
    /// Setting it, `router` or `min_replicas` runs the orchestrator
    /// instead of a bare fleet.
    pub autoscale: Option<String>,
    /// Route policy name (`load` | `round-robin` | `capability`).
    pub router: Option<String>,
    /// Autoscale floor: slots kept committed even when idle. Defaults to
    /// `replicas` under static scale and 1 otherwise.
    pub min_replicas: Option<usize>,
    /// The orchestrator's tenant classes; empty serves one default tenant
    /// at the spec SLO.
    pub tenants: Vec<TenantClass>,
}

impl Default for SystemSpec {
    /// One NeuPIMs replica on the Table 2 device serving GPT3-7B: lump
    /// prefill, drop-only preemption, analytic pricing, JSQ dispatch,
    /// batch 32, a 50 ms TTFT / 10 ms TPOT SLO, unsharded, no
    /// orchestrator.
    fn default() -> Self {
        Self {
            hardware: NeuPimsConfig::table2(),
            backend: "neupims".into(),
            scheduler: "lump".into(),
            chunk_tokens: 256,
            preemption: "drop".into(),
            swap_gbps: 32.0,
            cost_model: CostModelKind::Analytic,
            replicas: 1,
            policy: "jsq".into(),
            max_batch: 32,
            model: LlmConfig::gpt3_7b(),
            slo_ttft_ms: 50.0,
            slo_tpot_ms: 10.0,
            tp: None,
            pp: None,
            interconnect: "pcie".into(),
            link_gbps: None,
            autoscale: None,
            router: None,
            min_replicas: None,
            tenants: Vec::new(),
        }
    }
}

/// A built system, ready for request submission.
#[derive(Debug)]
pub enum System {
    /// Replicas behind a dispatch policy.
    Fleet(FleetSim<Box<dyn Backend>>),
    /// Replicas as the slot table of the meta-orchestrator.
    Orchestrator(Box<Orchestrator<Box<dyn Backend>>>),
}

impl System {
    /// Queues one request. `tenant` indexes the orchestrator's tenant
    /// table; a bare fleet has no tenants and ignores it.
    ///
    /// # Errors
    ///
    /// See [`FleetSim::submit`] and [`Orchestrator::submit`].
    pub fn submit(&mut self, req: FleetRequest, tenant: usize) -> Result<(), SimError> {
        match self {
            System::Fleet(fleet) => fleet.submit(req),
            System::Orchestrator(orch) => orch.submit(OrchRequest { req, tenant }),
        }
    }
}

impl SystemSpec {
    /// True when `tp`/`pp` ask for a multi-chip sharded deployment.
    pub fn sharding_requested(&self) -> bool {
        self.tp.is_some() || self.pp.is_some()
    }

    /// True when `autoscale`/`router`/`min_replicas` ask for the
    /// meta-orchestrator above the fleet.
    pub fn orchestration_requested(&self) -> bool {
        self.autoscale.is_some() || self.router.is_some() || self.min_replicas.is_some()
    }

    /// The orchestrator's autoscale floor: `min_replicas`, or by default
    /// the whole table under static scale and one slot otherwise.
    ///
    /// # Errors
    ///
    /// A `min_replicas` outside `1..=replicas`, named by its suite key
    /// (`min-replicas`): the floor is never clamped.
    pub fn autoscale_floor(&self) -> Result<usize, String> {
        match self.min_replicas {
            Some(min) if min == 0 || min > self.replicas => Err(format!(
                "\"min-replicas\" = {min} is outside 1..={} (\"replicas\")",
                self.replicas
            )),
            Some(min) => Ok(min),
            // Static scale holds the whole table on (the fleet-parity
            // configuration); the scalers start from a floor of one and
            // grow on demand.
            None if self.autoscale_name().eq_ignore_ascii_case("static") => Ok(self.replicas),
            None => Ok(1),
        }
    }

    /// The autoscale policy name, `static` when unset.
    fn autoscale_name(&self) -> &str {
        self.autoscale.as_deref().unwrap_or("static")
    }

    /// The spec-level latency targets.
    pub fn slo(&self) -> SloTargets {
        SloTargets::from_ms(self.slo_ttft_ms, self.slo_tpot_ms)
    }

    /// The tensor-parallel degree and resident layer count a replica's
    /// serving loop runs with. Under a sharding wrapper the wrapper
    /// supplies the parallelism, so the replica runs the full layer stack
    /// at device-internal TP 1; unsharded, the model's published (TP, PP)
    /// split applies.
    fn serving_shape(&self) -> (u32, u32) {
        let model = &self.model;
        if self.sharding_requested() {
            (1, model.num_layers)
        } else {
            (
                model.parallelism.tp,
                model.num_layers / model.parallelism.pp,
            )
        }
    }

    /// Builds backend `name` on the spec's calibrated hardware under its
    /// cost model, wrapped in a [`ShardedBackend`] over the spec's fabric
    /// when sharding is requested.
    ///
    /// # Errors
    ///
    /// Calibration failures (invalid hardware), unknown backend or
    /// interconnect names, and invalid sharding.
    fn backend(&self, name: &str) -> Result<Box<dyn Backend>, Box<dyn Error>> {
        let cal = calibrate(&self.hardware)?;
        let backend = backend_from_name_with_cost(name, &self.hardware, &cal, self.cost_model)?;
        if !self.sharding_requested() {
            return Ok(backend);
        }
        let spec = ClusterSpec::new(self.tp.unwrap_or(1), self.pp.unwrap_or(1));
        let fabric = interconnect_from_name(&self.interconnect, self.link_gbps)?;
        Ok(Box::new(ShardedBackend::new(backend, spec, fabric)?))
    }

    /// Mean decode tokens/s and mean utilization against the spec
    /// hardware over `samples` warm batches of `batch` requests from
    /// `dataset`: Figure 12's bars and Table 4's and Figure 6's
    /// quantities. The spec's backend (sharded when requested, pricing
    /// through `memo` when given) decodes each batch at the serving shape.
    /// Every batch comes from one RNG seeded `seed ^ batch`, so every mean
    /// describes the same batches.
    ///
    /// # Errors
    ///
    /// Calibration failures, unknown backend or interconnect names,
    /// invalid sharding, an invalid model, a zero batch or sample count,
    /// and backend errors.
    pub fn warm_means(
        &self,
        dataset: Dataset,
        batch: usize,
        seed: u64,
        samples: usize,
        memo: Option<&TraceMemo>,
    ) -> Result<(f64, Utilization), Box<dyn Error>> {
        self.model
            .validate()
            .map_err(|e| BackendError::InvalidSimulation(e.to_string()))?;
        if batch == 0 || samples == 0 {
            let msg = "zero batch size or sample count".into();
            return Err(BackendError::InvalidSimulation(msg).into());
        }
        let mut backend = self.backend(&self.backend)?;
        if let Some(memo) = memo {
            backend.attach_trace_memo(memo);
        }
        let (tp, layers) = self.serving_shape();
        let mut rng = StdRng::seed_from_u64(seed ^ batch as u64);
        let mut tokens_per_sec = 0.0;
        let mut sum = Utilization::default();
        for _ in 0..samples {
            let seqs = warm_seq_lens(&mut rng, dataset, batch);
            let iter = backend.decode_iteration(&self.model, tp, layers, &seqs)?;
            tokens_per_sec += iter.tokens_per_sec();
            let u = iter.utilization(&self.hardware);
            sum.npu += u.npu;
            sum.pim += u.pim;
            sum.bandwidth += u.bandwidth;
            sum.npu_stage += u.npu_stage;
            sum.pim_stage += u.pim_stage;
        }
        let n = samples as f64;
        Ok((
            tokens_per_sec / n,
            Utilization {
                npu: sum.npu / n,
                pim: sum.pim / n,
                bandwidth: sum.bandwidth / n,
                npu_stage: sum.npu_stage / n,
                pim_stage: sum.pim_stage / n,
            },
        ))
    }

    /// The replay memo trace-priced replicas share: disk-backed under
    /// `cache_dir`, in-memory otherwise, and `None` under analytic
    /// pricing, where there is nothing to memoize.
    ///
    /// # Errors
    ///
    /// Propagates failures to create or read `cache_dir`.
    pub fn trace_memo(&self, cache_dir: Option<&Path>) -> std::io::Result<Option<TraceMemo>> {
        if self.cost_model != CostModelKind::TraceDriven {
            return Ok(None);
        }
        cache_dir
            .map_or_else(|| Ok(TraceMemo::new()), TraceMemo::with_cache_dir)
            .map(Some)
    }

    /// Builds serving replica `index` on the spec's hardware: the backend
    /// and scheduler names at `index` of their comma-separated lists (cycled),
    /// under the spec's cost model, preemption policy, swap link, serving
    /// shape and SLO, pricing through `memo` when given. Every replica of
    /// [`Self::build`] comes from here, and so does `serve`'s lone one.
    ///
    /// # Errors
    ///
    /// Calibration failures, unknown backend, scheduler, preemption or
    /// fabric names, and invalid sharding.
    pub fn replica(
        &self,
        index: usize,
        memo: Option<&TraceMemo>,
    ) -> Result<ServingSim<Box<dyn Backend>>, Box<dyn Error>> {
        let preemption = preemption_from_name(&self.preemption)?;
        let backends: Vec<&str> = self.backend.split(',').map(str::trim).collect();
        let schedulers: Vec<&str> = self.scheduler.split(',').map(str::trim).collect();
        let backend = self.backend(backends[index % backends.len()])?;
        let scheduler =
            scheduler_from_name(schedulers[index % schedulers.len()], self.chunk_tokens)?;
        let (tp, layers) = self.serving_shape();
        let cfg = ServingConfig {
            max_batch: self.max_batch,
            tp,
            layers,
            target_completions: 0,
            slo: Some(self.slo()),
        };
        let replica = ServingSim::with_scheduler(backend, self.model.clone(), cfg, scheduler)
            .with_cost_model(self.cost_model)
            .with_preemption(preemption)
            .with_swap(SwapConfig {
                gb_per_sec: self.swap_gbps,
            });
        Ok(match memo {
            Some(memo) => replica.with_trace_memo(memo),
            None => replica,
        })
    }

    /// Builds the system: `replicas` serving replicas (each from
    /// [`Self::replica`]), dispatched as a [`FleetSim`] or, when
    /// [`Self::orchestration_requested`], owned by an [`Orchestrator`].
    /// `jobs` caps the worker threads (`None`: available parallelism); it
    /// never changes results.
    ///
    /// # Errors
    ///
    /// Calibration failures, unknown policy, backend or fabric names,
    /// invalid sharding, an invalid [`Self::autoscale_floor`], and a
    /// replica table the fleet or orchestrator rejects.
    pub fn build(
        &self,
        memo: Option<&TraceMemo>,
        jobs: Option<usize>,
    ) -> Result<System, Box<dyn Error>> {
        let floor = self.autoscale_floor()?;
        let replicas = (0..self.replicas)
            .map(|i| self.replica(i, memo))
            .collect::<Result<Vec<_>, _>>()?;
        // `with_jobs(0)` keeps the default worker count.
        let jobs = jobs.unwrap_or(0);
        if !self.orchestration_requested() {
            let fleet = FleetSim::new(replicas, policy_from_name(&self.policy)?)?;
            return Ok(System::Fleet(fleet.with_jobs(jobs)));
        }

        let mut orch_cfg = OrchestratorConfig::default_for(self.replicas);
        orch_cfg.min_replicas = floor;
        let tenants = if self.tenants.is_empty() {
            vec![TenantClass::new(
                "default",
                self.slo(),
                DEFAULT_TENANT_PRIORITY,
                1.0,
            )]
        } else {
            self.tenants.clone()
        };
        let orch = Orchestrator::new(
            replicas,
            tenants,
            router_from_name(self.router.as_deref().unwrap_or("load"))?,
            autoscale_from_name(self.autoscale_name())?,
            orch_cfg,
        )?;
        Ok(System::Orchestrator(Box::new(orch.with_jobs(jobs))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BACKEND_NAMES;

    #[test]
    fn replica_serves_with_prefill_charged_to_ttft() {
        let spec = SystemSpec {
            max_batch: 16,
            ..SystemSpec::default()
        };
        let mut serving = spec.replica(0, None).unwrap();
        for i in 0..8 {
            serving.submit(i, 64, 4, 0).unwrap();
        }
        let out = serving.run().unwrap();
        assert_eq!(out.completed, 8);
        assert!(out.tokens_per_sec() > 0.0);
        assert!(out.ttft_percentile(50.0) > 0, "prefill must charge TTFT");
    }

    #[test]
    fn replica_serves_on_every_backend_kind() {
        for name in BACKEND_NAMES {
            let spec = SystemSpec {
                backend: name.to_owned(),
                max_batch: 8,
                ..SystemSpec::default()
            };
            let mut s = spec.replica(0, None).unwrap();
            for i in 0..8 {
                s.submit(i, 64, 2, 0).unwrap();
            }
            let out = s.run().unwrap();
            assert_eq!(out.completed, 8, "{name}");
            assert_eq!(out.tokens, 16, "{name}");
        }
    }

    #[test]
    fn serving_shape_follows_the_model_unless_sharded() {
        // GPT3-30B publishes TP 4, PP 2: half its 48 layers resident.
        let spec = SystemSpec {
            model: LlmConfig::gpt3_30b(),
            ..SystemSpec::default()
        };
        assert_eq!(spec.serving_shape(), (4, 24));
        // A sharding wrapper supplies the parallelism itself.
        let sharded = SystemSpec {
            tp: Some(2),
            ..spec
        };
        assert_eq!(sharded.serving_shape(), (1, 48));
    }

    #[test]
    fn warm_means_rejects_degenerate_runs() {
        let spec = SystemSpec {
            backend: "gpu".into(),
            ..SystemSpec::default()
        };
        let run = |spec: &SystemSpec, batch, samples| {
            spec.warm_means(Dataset::ShareGpt, batch, 1, samples, None)
        };
        assert!(run(&spec, 1, 1).is_ok());
        assert!(run(&spec, 0, 1).is_err());
        assert!(run(&spec, 1, 0).is_err());
        let mut bad = spec.clone();
        bad.model.d_model = 0;
        assert!(run(&bad, 1, 1).is_err());
    }

    #[test]
    fn autoscale_floor_is_never_clamped() {
        let spec = |min_replicas, autoscale: Option<&str>| SystemSpec {
            backend: "gpu".into(),
            replicas: 2,
            min_replicas,
            autoscale: autoscale.map(str::to_owned),
            ..SystemSpec::default()
        };
        for min in [0, 3, 9] {
            let err = spec(Some(min), None).build(None, Some(1)).unwrap_err();
            assert!(err.to_string().contains("\"min-replicas\""), "{err}");
        }
        assert_eq!(spec(Some(2), None).autoscale_floor(), Ok(2));
        assert_eq!(spec(None, None).autoscale_floor(), Ok(2));
        assert_eq!(spec(None, Some("reactive")).autoscale_floor(), Ok(1));
        assert!(spec(Some(1), Some("reactive")).build(None, Some(1)).is_ok());
    }

    #[test]
    fn replicas_run_on_the_spec_hardware() {
        let mut hardware = NeuPimsConfig::table2();
        hardware.mem.channels = 4;
        let spec = SystemSpec {
            hardware,
            replicas: 2,
            ..SystemSpec::default()
        };
        for index in 0..spec.replicas {
            let replica = spec.replica(index, None).unwrap();
            assert_eq!(replica.backend().mem_config().channels, 4);
        }
    }
}
