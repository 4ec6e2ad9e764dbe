//! The `Simulation` builder: the warm-batch pricer.
//!
//! A [`Simulation`] binds a [`Backend`] to a model, a dataset, and a batch
//! geometry, then prices decode iterations, prefills, warm-batch
//! throughput, and multi-device (TP, PP) deployments. Serving replicas are
//! built elsewhere, in one place:
//! [`SystemSpec::replica`](crate::system::SystemSpec::replica).
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

use neupims_types::{Cycle, LlmConfig, NeuPimsConfig};
use neupims_workload::{warm_batch, Dataset};

use crate::backend::{Backend, BackendError, IterationResult};
use crate::metrics::Utilization;
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
        }
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
        Ok(Simulation {
            backend: self.backend,
            model,
            dataset: self.dataset,
            batch: self.batch,
            tp,
            layers,
            seed: self.seed,
            samples: self.samples,
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
    fn sample_seq_lens(&self, rng: &mut StdRng) -> Vec<u64> {
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
        Ok(self.warm_means(&NeuPimsConfig::table2())?.0)
    }

    /// Mean tokens/s and mean resource utilization against `cfg` (Table
    /// 4's and Figure 6's quantities) over the configured warm-batch
    /// samples, priced in one loop under one seed rule, so every mean
    /// describes the same batches.
    ///
    /// # Errors
    ///
    /// Propagates backend errors.
    pub fn warm_means(&self, cfg: &NeuPimsConfig) -> Result<(f64, Utilization), BackendError> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ self.batch as u64);
        let mut tokens_per_sec = 0.0;
        let mut sum = Utilization::default();
        for _ in 0..self.samples {
            let seqs = self.sample_seq_lens(&mut rng);
            let iter = self.decode_iteration(&seqs)?;
            tokens_per_sec += iter.tokens_per_sec();
            let u = iter.utilization(cfg);
            sum.npu += u.npu;
            sum.pim += u.pim;
            sum.bandwidth += u.bandwidth;
            sum.npu_stage += u.npu_stage;
            sum.pim_stage += u.pim_stage;
        }
        let n = self.samples as f64;
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
    fn sharded_cluster_throughput_runs_through_the_builder() {
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
