//! The `Simulation` builder: one entry point for every experiment shape.
//!
//! A [`Simulation`] binds a [`Backend`] to a model, a dataset, and a batch
//! geometry, then prices decode iterations, warm-batch throughput,
//! multi-device (TP, PP) deployments, and full serving runs — replacing
//! the scattered per-system entry points the harness used to hard-wire.
//!
//! # Example
//!
//! ```
//! use neupims_core::device::Device;
//! use neupims_core::simulation::Simulation;
//! use neupims_types::LlmConfig;
//! use neupims_workload::Dataset;
//!
//! let sim = Simulation::builder()
//!     .model(LlmConfig::gpt3_7b())
//!     .backend(Device::table2().unwrap())
//!     .dataset(Dataset::ShareGpt)
//!     .batch(64)
//!     .build()
//!     .unwrap();
//! assert!(sim.throughput().unwrap() > 0.0);
//! ```
//!
//! Backends are interchangeable: swap the [`Device`](crate::device::Device) for
//! [`GpuRooflineBackend`](crate::backend::GpuRooflineBackend),
//! [`TransPimBackend`](crate::backend::TransPimBackend), or a boxed backend
//! from [`backend_from_name`](crate::backend::backend_from_name), and every
//! method keeps working.

use rand::rngs::StdRng;
use rand::SeedableRng;

use neupims_sched::{CostModelKind, TraceMemo};
use neupims_types::{Cycle, LlmConfig};
use neupims_workload::{warm_batch, Dataset};

use crate::backend::{Backend, BackendError, IterationResult};
use crate::preempt::{DropOnly, PreemptionPolicy, SwapConfig};
use crate::scheduler::{LumpPrefill, SchedulerPolicy};
use crate::serving::{ServingConfig, ServingSim, SloTargets};
use crate::sharding::{ClusterSpec, ShardedBackend};

/// Default RNG seed of the experiment harness (kept from the seed repo so
/// regenerated tables stay comparable across versions).
pub const DEFAULT_SEED: u64 = 0xA5F0_2024;

/// A configured simulation of one backend serving one model.
#[derive(Debug, Clone)]
pub struct Simulation<B: Backend> {
    backend: B,
    model: LlmConfig,
    dataset: Dataset,
    batch: usize,
    tp: u32,
    layers: u32,
    seed: u64,
    samples: usize,
    scheduler: Box<dyn SchedulerPolicy>,
    cost_model: Option<CostModelKind>,
    preemption: Box<dyn PreemptionPolicy>,
    swap: SwapConfig,
}

/// Builder for [`Simulation`] (see [`Simulation::builder`]).
///
/// The backend is a type-state: [`SimulationBuilder::build`] only exists
/// once [`SimulationBuilder::backend`] has been called, so a simulation
/// without a backend is a compile error rather than a runtime one.
#[derive(Debug, Clone)]
pub struct SimulationBuilder<B = NoBackend> {
    backend: B,
    model: Option<LlmConfig>,
    dataset: Dataset,
    batch: usize,
    tp: Option<u32>,
    layers: Option<u32>,
    seed: u64,
    samples: usize,
    scheduler: Box<dyn SchedulerPolicy>,
    cost_model: Option<CostModelKind>,
    preemption: Box<dyn PreemptionPolicy>,
    swap: SwapConfig,
    trace_memo: Option<TraceMemo>,
}

/// Type-state marker: no backend selected yet.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoBackend;

impl Simulation<Box<dyn Backend>> {
    /// Starts a builder. Defaults: ShareGPT dataset, batch 256, the
    /// model's published (TP, PP) sharding, [`DEFAULT_SEED`], 10 samples.
    ///
    /// (`builder` is anchored on the boxed-backend instantiation so the
    /// call needs no type annotation; the builder's
    /// [`backend`](SimulationBuilder::backend) call fixes the actual
    /// backend type, boxed or not.)
    pub fn builder() -> SimulationBuilder<NoBackend> {
        SimulationBuilder {
            backend: NoBackend,
            model: None,
            dataset: Dataset::ShareGpt,
            batch: 256,
            tp: None,
            layers: None,
            seed: DEFAULT_SEED,
            samples: 10,
            scheduler: Box::new(LumpPrefill),
            cost_model: None,
            preemption: Box::new(DropOnly),
            swap: SwapConfig::default(),
            trace_memo: None,
        }
    }
}

impl<T> SimulationBuilder<T> {
    /// Selects (or replaces) the backend to simulate.
    pub fn backend<B: Backend>(self, backend: B) -> SimulationBuilder<B> {
        SimulationBuilder {
            backend,
            model: self.model,
            dataset: self.dataset,
            batch: self.batch,
            tp: self.tp,
            layers: self.layers,
            seed: self.seed,
            samples: self.samples,
            scheduler: self.scheduler,
            cost_model: self.cost_model,
            preemption: self.preemption,
            swap: self.swap,
            trace_memo: self.trace_memo,
        }
    }

    /// Sets the KV-pressure preemption policy installed into every
    /// [`Simulation::serving`] run (defaults to [`DropOnly`]; see
    /// [`crate::preempt`] for the shipped policies).
    pub fn preemption(mut self, policy: Box<dyn PreemptionPolicy>) -> Self {
        self.preemption = policy;
        self
    }

    /// Sets the swap-link parameters pricing
    /// [`SwapLru`](crate::preempt::SwapLru) restores in
    /// [`Simulation::serving`] runs (ignored by the other policies).
    pub fn swap(mut self, swap: SwapConfig) -> Self {
        self.swap = swap;
        self
    }

    /// Sets the iteration-level serving scheduler installed into every
    /// [`Simulation::serving`] run (defaults to
    /// [`LumpPrefill`]; see [`crate::scheduler`] for the shipped policies).
    pub fn scheduler(mut self, scheduler: Box<dyn SchedulerPolicy>) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Overrides the MHA cost model the serving scheduler prices PIM
    /// GEMV phases with (and whose channel statistics surface as
    /// [`ServingOutcome::pim_trace`](crate::serving::ServingOutcome::pim_trace)):
    /// the Algorithm 1 closed form or trace-driven command-stream replay
    /// through the cycle-level DRAM model.
    ///
    /// The backend's *decode iterations* are priced by its own configured
    /// kind (e.g. [`Device::with_cost_model`]), which this
    /// serving-layer knob cannot reach — configure the backend too for a
    /// fully trace-priced run (the CLI's `--cost-model` sets both). When
    /// unset, serving follows the backend's configured kind
    /// ([`Backend::preferred_cost_model`]), so configuring only the
    /// backend is always coherent. Backends without a PIM ignore the knob
    /// entirely.
    ///
    /// [`Device::with_cost_model`]: crate::device::Device::with_cost_model
    pub fn cost_model(mut self, kind: CostModelKind) -> Self {
        self.cost_model = Some(kind);
        self
    }

    /// Shares a [`TraceMemo`] with the backend's trace-driven cost model
    /// at [`build`](SimulationBuilder::build) time (see
    /// [`Backend::attach_trace_memo`]): replay results are pooled with
    /// every other simulation pricing through the same memo — including
    /// a disk-backed one built with
    /// [`TraceMemo::with_cache_dir`](neupims_sched::TraceMemo::with_cache_dir).
    /// Backends without a PIM ignore the memo.
    pub fn trace_memo(mut self, memo: TraceMemo) -> Self {
        self.trace_memo = Some(memo);
        self
    }

    /// Sets the model (defaults to GPT3-7B when unset).
    pub fn model(mut self, model: LlmConfig) -> Self {
        self.model = Some(model);
        self
    }

    /// Sets the dataset the warm batches are drawn from.
    pub fn dataset(mut self, dataset: Dataset) -> Self {
        self.dataset = dataset;
        self
    }

    /// Sets the decode batch size (requests per iteration).
    pub fn batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// Overrides the tensor-parallel degree (defaults to the model's
    /// published Table 3 value).
    pub fn tp(mut self, tp: u32) -> Self {
        self.tp = Some(tp);
        self
    }

    /// Overrides the resident layer count (defaults to
    /// `num_layers / parallelism.pp`, the per-stage share).
    pub fn layers(mut self, layers: u32) -> Self {
        self.layers = Some(layers);
        self
    }

    /// Sets the workload-sampling RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets how many warm batches [`Simulation::throughput`] averages over.
    pub fn samples(mut self, samples: usize) -> Self {
        self.samples = samples;
        self
    }
}

impl<B: Backend> SimulationBuilder<B> {
    /// Finalizes the simulation.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::InvalidSimulation`] for a zero batch, zero
    /// samples, an invalid model, or a layer count that doesn't divide by
    /// the model's pipeline degree when layers are defaulted.
    pub fn build(self) -> Result<Simulation<B>, BackendError> {
        let model = self.model.unwrap_or_else(LlmConfig::gpt3_7b);
        model
            .validate()
            .map_err(|e| BackendError::InvalidSimulation(e.to_string()))?;
        if self.batch == 0 {
            return Err(BackendError::InvalidSimulation("zero batch size".into()));
        }
        if self.samples == 0 {
            return Err(BackendError::InvalidSimulation("zero sample count".into()));
        }
        let tp = self.tp.unwrap_or(model.parallelism.tp);
        let layers = self
            .layers
            .unwrap_or(model.num_layers / model.parallelism.pp);
        if tp == 0 || layers == 0 {
            return Err(BackendError::InvalidSimulation(
                "zero tensor-parallel degree or layer count".into(),
            ));
        }
        let mut backend = self.backend;
        if let Some(memo) = &self.trace_memo {
            backend.attach_trace_memo(memo);
        }
        Ok(Simulation {
            backend,
            model,
            dataset: self.dataset,
            batch: self.batch,
            tp,
            layers,
            seed: self.seed,
            samples: self.samples,
            scheduler: self.scheduler,
            cost_model: self.cost_model,
            preemption: self.preemption,
            swap: self.swap,
        })
    }
}

impl<B: Backend> Simulation<B> {
    /// The simulated backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// The simulated model.
    pub fn model(&self) -> &LlmConfig {
        &self.model
    }

    /// The dataset warm batches are drawn from.
    pub fn dataset(&self) -> Dataset {
        self.dataset
    }

    /// The configured decode batch size.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The tensor-parallel degree in effect.
    pub fn tp(&self) -> u32 {
        self.tp
    }

    /// The resident decoder layers in effect.
    pub fn layers(&self) -> u32 {
        self.layers
    }

    /// Samples one warm batch of sequence lengths from the dataset.
    pub fn sample_seq_lens(&self, rng: &mut StdRng) -> Vec<u64> {
        warm_batch(rng, self.dataset, self.batch)
            .iter()
            .map(|r| r.seq_len())
            .collect()
    }

    /// Prices one decode iteration for an explicit batch.
    ///
    /// # Errors
    ///
    /// Propagates backend errors.
    pub fn decode_iteration(&self, seq_lens: &[u64]) -> Result<IterationResult, BackendError> {
        self.backend
            .decode_iteration(&self.model, self.tp, self.layers, seq_lens)
    }

    /// Prices the prefill phase for an explicit prompt batch.
    ///
    /// # Errors
    ///
    /// Propagates backend errors.
    pub fn prefill_cycles(&self, prompt_lens: &[u64]) -> Result<Cycle, BackendError> {
        self.backend
            .prefill_cycles(&self.model, self.tp, self.layers, prompt_lens)
    }

    /// Mean decode throughput (tokens/s) over the configured number of
    /// warm-batch samples — the quantity Figure 12's bars plot.
    ///
    /// # Errors
    ///
    /// Propagates backend errors.
    pub fn throughput(&self) -> Result<f64, BackendError> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ self.batch as u64);
        let mut sum = 0.0;
        for _ in 0..self.samples {
            let seqs = self.sample_seq_lens(&mut rng);
            sum += self.decode_iteration(&seqs)?.tokens_per_sec();
        }
        Ok(sum / self.samples as f64)
    }

    /// System throughput of a multi-device `(TP, PP)` deployment of this
    /// simulation's backend, over one sampled warm batch of the configured
    /// size: a [`ShardedBackend`] of single devices whose collectives are
    /// priced by `interconnect`
    /// ([`ShardedBackend::cluster_tokens_per_sec`] at device TP 1).
    ///
    /// # Errors
    ///
    /// Propagates sharding validation and backend errors.
    pub fn sharded_cluster_throughput(
        &self,
        spec: ClusterSpec,
        interconnect: Box<dyn crate::interconnect::Interconnect>,
    ) -> Result<f64, BackendError> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x14);
        let seqs = self.sample_seq_lens(&mut rng);
        let sharded = ShardedBackend::new(&self.backend, spec, interconnect)
            .map_err(|e| BackendError::sim(self.backend.label(), e))?;
        sharded
            .cluster_tokens_per_sec(&self.model, 1, &seqs)
            .map_err(|e| BackendError::sim(self.backend.label(), e))
    }

    /// The iteration-level serving scheduler installed into
    /// [`Self::serving`] runs.
    pub fn scheduler(&self) -> &dyn SchedulerPolicy {
        &*self.scheduler
    }

    /// The KV-pressure preemption policy installed into [`Self::serving`]
    /// runs.
    pub fn preemption(&self) -> &dyn PreemptionPolicy {
        &*self.preemption
    }

    /// The MHA cost-model kind installed into [`Self::serving`] runs:
    /// the builder override when one was set, else the backend's own
    /// configured kind.
    pub fn cost_model_kind(&self) -> CostModelKind {
        self.cost_model
            .unwrap_or_else(|| self.backend.preferred_cost_model())
    }

    /// Builds a serving simulation over this backend (borrowed), with the
    /// simulation's TP degree, resident layers, and configured scheduler.
    pub fn serving(&self, max_batch: usize, target_completions: u64) -> ServingSim<&B> {
        self.serving_with_slo(max_batch, target_completions, None)
    }

    /// Like [`Self::serving`], but with latency SLO targets: the outcome's
    /// attainment and goodput are measured against them.
    pub fn serving_with_slo(
        &self,
        max_batch: usize,
        target_completions: u64,
        slo: Option<SloTargets>,
    ) -> ServingSim<&B> {
        ServingSim::with_scheduler(
            &self.backend,
            self.model.clone(),
            ServingConfig {
                max_batch,
                tp: self.tp,
                layers: self.layers,
                target_completions,
                slo,
            },
            self.scheduler.clone(),
        )
        .with_cost_model(self.cost_model_kind())
        .with_preemption(self.preemption.clone())
        .with_swap(self.swap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{backend_from_name, GpuRooflineBackend, TransPimBackend};
    use crate::device::DeviceMode;
    use crate::interconnect::PcieLink;
    use crate::testsupport::{table2_device, table2_pair};

    #[test]
    fn builder_defaults_follow_the_model() {
        let sim = Simulation::builder()
            .model(LlmConfig::gpt3_30b())
            .backend(table2_device(DeviceMode::neupims()))
            .build()
            .unwrap();
        // GPT3-30B publishes TP=4, PP=2: half the layers resident.
        assert_eq!(sim.tp(), 4);
        assert_eq!(sim.layers(), 24);
        assert_eq!(sim.batch(), 256);
    }

    #[test]
    fn builder_rejects_degenerate_configs() {
        let b = || {
            Simulation::builder()
                .backend(GpuRooflineBackend::a100())
                .model(LlmConfig::gpt3_7b())
        };
        assert!(b().batch(0).build().is_err());
        assert!(b().samples(0).build().is_err());
        assert!(b().tp(0).build().is_err());
        let mut bad = LlmConfig::gpt3_7b();
        bad.d_model = 0;
        assert!(b().model(bad).build().is_err());
    }

    #[test]
    fn throughput_ranks_systems_like_figure12() {
        let (cfg, cal) = table2_pair();
        let thr = |name: &str| {
            Simulation::builder()
                .model(LlmConfig::gpt3_7b())
                .backend(backend_from_name(name, &cfg, &cal).unwrap())
                .batch(256)
                .samples(2)
                .build()
                .unwrap()
                .throughput()
                .unwrap()
        };
        let npu = thr("npu-only");
        let naive = thr("naive");
        let neupims = thr("neupims");
        let transpim = thr("transpim");
        assert!(neupims > naive, "{neupims} vs {naive}");
        assert!(naive > npu, "{naive} vs {npu}");
        assert!(npu > transpim, "{npu} vs {transpim}");
    }

    #[test]
    fn cluster_and_serving_run_through_the_builder() {
        let sim = Simulation::builder()
            .model(LlmConfig::gpt3_7b())
            .backend(table2_device(DeviceMode::neupims()))
            .batch(64)
            .samples(2)
            .build()
            .unwrap();
        let thr = sim
            .sharded_cluster_throughput(ClusterSpec::new(4, 2), Box::new(PcieLink::default()))
            .unwrap();
        assert!(thr > 0.0);

        let mut serving = sim.serving(16, 0);
        for i in 0..8 {
            serving.submit(i, 64, 4, 0).unwrap();
        }
        let out = serving.run().unwrap();
        assert_eq!(out.completed, 8);
        assert!(out.tokens_per_sec() > 0.0);
        assert!(out.ttft_percentile(50.0) > 0, "prefill must charge TTFT");
    }

    #[test]
    fn serving_runs_on_every_backend_kind() {
        let (cfg, cal) = table2_pair();
        let run = |sim: &Simulation<Box<dyn crate::backend::Backend>>| {
            let mut s = sim.serving(8, 0);
            for i in 0..8 {
                s.submit(i, 64, 2, 0).unwrap();
            }
            s.run().unwrap()
        };
        for name in crate::backend::BACKEND_NAMES {
            let sim = Simulation::builder()
                .model(LlmConfig::gpt3_7b())
                .backend(backend_from_name(name, &cfg, &cal).unwrap())
                .batch(8)
                .samples(1)
                .build()
                .unwrap();
            let out = run(&sim);
            assert_eq!(out.completed, 8, "{name}");
            assert_eq!(out.tokens, 16, "{name}");
        }
    }

    #[test]
    fn transpim_backend_throughput_is_orders_below_neupims() {
        let sim = |b: bool| {
            if b {
                Simulation::builder()
                    .backend(table2_device(DeviceMode::neupims()))
                    .batch(64)
                    .samples(2)
                    .build()
                    .unwrap()
                    .throughput()
                    .unwrap()
            } else {
                Simulation::builder()
                    .backend(TransPimBackend::table2().unwrap())
                    .batch(64)
                    .samples(2)
                    .build()
                    .unwrap()
                    .throughput()
                    .unwrap()
            }
        };
        let ratio = sim(true) / sim(false);
        assert!(ratio > 30.0, "ratio {ratio}");
    }
}
