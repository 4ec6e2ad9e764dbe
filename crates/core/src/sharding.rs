//! First-class multi-chip sharding: tensor-parallel head/column splits,
//! pipeline stages with their fill/drain bubble, and collectives priced
//! by a pluggable [`Interconnect`].
//!
//! [`ShardedBackend`] wraps any [`Backend`] and deploys it as a
//! `(TP, PP)` [`ClusterSpec`]:
//!
//! * **Tensor parallelism** — attention heads and FFN columns split
//!   across `tp` chips. The wrapped backend prices the
//!   per-chip compute; the two per-layer all-reduces are lifted out of
//!   the inner breakdown (`allreduce_cycles`) and re-priced on the
//!   configured fabric, so swapping `--interconnect` changes exactly the
//!   collective term and nothing else.
//! * **Pipeline parallelism** — layers split into `pp` stages; the batch
//!   flows through as micro-batches. Steady-state throughput comes from
//!   the pipeline beat (slowest stage vs. inter-stage activation hop).
//!   Stages are uniform, so one pipeline round costs `pp` beats: one of
//!   streaming and a fill/drain bubble of `(pp - 1)` beats.
//!
//! The paper's Figure 14 model is one deployment of this wrapper:
//! `ClusterSpec::new(1, pp)` over
//! [`PcieLink::from_config`](crate::interconnect::PcieLink::from_config)
//! of the device's own link, priced at the device-internal `tp`
//! ([`fig14_parallelism`](crate::experiments::fig14_parallelism)). The
//! device keeps its own all-reduce pricing, and the wrapper adds only the
//! pipeline split and the stage hop.
//!
//! In the [`IdealLink`](crate::interconnect::IdealLink) limit, and on the
//! PCIe fabric for the serial device modes, the sharded numbers equal the
//! retired divide-and-ceil multi-device model bit-for-bit; its values are
//! frozen in `tests/parity_sharding.rs` and `tests/integration_cluster.rs`.

use neupims_types::{Cycle, LlmConfig, SimError};

use crate::backend::{Backend, BackendCaps, BackendError, IterationResult};
use crate::interconnect::{Interconnect, ALLREDUCES_PER_LAYER};

/// A (TP, PP) deployment of one model across `tp * pp` devices.
///
/// Tensor parallelism shrinks per-device work; pipeline parallelism
/// shrinks the per-device batch and the tokens per beat. That asymmetry
/// is why Figure 14 prefers TP until memory forces PP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterSpec {
    /// Tensor-parallel degree.
    pub tp: u32,
    /// Pipeline-parallel degree.
    pub pp: u32,
}

impl ClusterSpec {
    /// Creates a spec.
    pub const fn new(tp: u32, pp: u32) -> Self {
        Self { tp, pp }
    }

    /// Devices required.
    pub const fn devices(&self) -> u32 {
        self.tp * self.pp
    }
}

/// The priced anatomy of one sharded decode beat — what
/// [`ShardedBackend::decode_detail`] reports and the scaling analyses
/// plot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedIteration {
    /// Per-stage compute cycles with the inner backend's own collective
    /// pricing removed.
    pub stage_compute_cycles: Cycle,
    /// Re-priced tensor-parallel collective cycles per stage (two
    /// all-reduces per resident layer on the configured fabric).
    pub collective_cycles: Cycle,
    /// Inter-stage activation transfer per beat (zero when `pp == 1`).
    pub pp_transfer_cycles: Cycle,
    /// The pipeline beat: `max(stage compute + collectives, transfer)`.
    pub beat: Cycle,
    /// Tokens the full batch produces per pipeline round.
    pub tokens: u64,
}

/// Any [`Backend`] deployed across `tp * pp` chips joined by a priced
/// [`Interconnect`].
///
/// The wrapper composes with the caller's own `tp` argument (the inner
/// device-level TP times the sharding-layer TP), divides the resident
/// layers into `pp` stages, and exposes the resulting steady-state
/// pipeline round as one [`IterationResult`] — so everything generic
/// over `Backend` ([`SystemSpec::warm_means`](crate::system::SystemSpec::warm_means),
/// [`ServingSim`](crate::serving::ServingSim),
/// [`FleetSim`](crate::fleet::FleetSim)) runs sharded unchanged.
#[derive(Debug)]
pub struct ShardedBackend<B> {
    inner: B,
    spec: ClusterSpec,
    interconnect: Box<dyn Interconnect>,
    label: String,
}

impl<B: Clone> Clone for ShardedBackend<B> {
    fn clone(&self) -> Self {
        Self {
            inner: self.inner.clone(),
            spec: self.spec,
            interconnect: self.interconnect.clone(),
            label: self.label.clone(),
        }
    }
}

impl<B: Backend> ShardedBackend<B> {
    /// Deploys `inner` as `spec` over `interconnect`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for zero parallel degrees.
    pub fn new(
        inner: B,
        spec: ClusterSpec,
        interconnect: Box<dyn Interconnect>,
    ) -> Result<Self, SimError> {
        if spec.tp == 0 || spec.pp == 0 {
            return Err(SimError::InvalidConfig("zero parallel degree".into()));
        }
        let label = format!(
            "{} x{} (tp{} pp{}, {})",
            inner.label(),
            spec.devices(),
            spec.tp,
            spec.pp,
            interconnect.name()
        );
        Ok(Self {
            inner,
            spec,
            interconnect,
            label,
        })
    }

    /// The TP degree each inner device prices at: the caller's
    /// device-internal `tp` times the spec's. Checks that `layers` split
    /// into `pp` stages and that every device holds at least one
    /// attention head.
    fn inner_tp(&self, model: &LlmConfig, tp: u32, layers: u32) -> Result<u32, BackendError> {
        let pp = self.spec.pp;
        let invalid = |msg| Err(BackendError::sim(&self.label, SimError::InvalidConfig(msg)));
        if layers == 0 || !layers.is_multiple_of(pp) {
            return invalid(format!("{layers} layers not divisible by PP={pp}"));
        }
        let inner_tp = tp.max(1).saturating_mul(self.spec.tp);
        if inner_tp > model.num_heads {
            return invalid(format!(
                "TP={inner_tp} exceeds the {} attention heads of {}",
                model.num_heads, model.name
            ));
        }
        Ok(inner_tp)
    }

    /// Prices one sharded decode beat in full detail: per-stage compute,
    /// re-priced collectives and the inter-stage hop.
    ///
    /// `tp` and `layers` are the *caller's* view (device-internal TP and
    /// total resident layers); the sharding spec composes on top.
    ///
    /// # Errors
    ///
    /// Rejects empty batches, layer counts not divisible by `pp` and a
    /// composed TP above the model's attention heads; propagates inner
    /// backend errors.
    pub fn decode_detail(
        &self,
        model: &LlmConfig,
        tp: u32,
        layers: u32,
        seq_lens: &[u64],
    ) -> Result<(ShardedIteration, IterationResult), BackendError> {
        let pp = self.spec.pp;
        let inner_tp = self.inner_tp(model, tp, layers)?;
        if seq_lens.is_empty() {
            return Err(BackendError::sim(
                &self.label,
                SimError::InvalidShape("empty batch".into()),
            ));
        }
        let layers_per_stage = layers / pp;
        let micro = seq_lens.len().div_ceil(pp as usize).max(1);
        let mb = &seq_lens[..micro.min(seq_lens.len())];
        let inner = self
            .inner
            .decode_iteration(model, inner_tp, layers_per_stage, mb)?;

        // Lift the inner backend's own collective pricing out and re-price
        // the two per-layer all-reduces on this deployment's fabric. When
        // the sharding layer adds no TP of its own (spec.tp == 1) the
        // inner pricing stands untouched.
        let es = model.dtype.size_bytes();
        let msg_bytes = mb.len() as u64 * model.d_model as u64 * es;
        let inner_allreduce = inner.breakdown.allreduce_cycles.min(inner.total_cycles());
        let stage_compute = inner.total_cycles() - inner_allreduce;
        let collectives = if self.spec.tp > 1 {
            self.interconnect.all_reduce_cycles(msg_bytes, inner_tp)
                * ALLREDUCES_PER_LAYER
                * layers_per_stage as u64
        } else {
            inner_allreduce
        };

        // Inter-stage activation hop: the micro-batch's hidden states,
        // already sharded 1/tp by the column split.
        let act_bytes = mb.len() as u64 * model.d_model as u64 * es / inner_tp.max(1) as u64;
        let pp_transfer = if pp > 1 {
            self.interconnect.point_to_point_cycles(act_bytes)
        } else {
            0
        };

        let beat = (stage_compute + collectives).max(pp_transfer).max(1);
        let det = ShardedIteration {
            stage_compute_cycles: stage_compute,
            collective_cycles: collectives,
            pp_transfer_cycles: pp_transfer,
            beat,
            tokens: seq_lens.len() as u64,
        };
        Ok((det, inner))
    }

    /// System tokens-per-second of this deployment on one warm batch
    /// (`seq_lens`, the whole request set; micro-batching splits it): one
    /// micro-batch of `len / pp` tokens completes per pipeline beat.
    ///
    /// `tp` is the caller's device-internal degree, as in
    /// [`Backend::decode_iteration`]; the spec's own TP composes on top.
    /// When the request count does not divide by `pp`, the beat is priced
    /// on the largest micro-batch while the numerator keeps the exact
    /// mean, so no request is dropped.
    ///
    /// # Errors
    ///
    /// Rejects `tp == 0` and request counts below `pp`; propagates
    /// pricing errors.
    pub fn cluster_tokens_per_sec(
        &self,
        model: &LlmConfig,
        tp: u32,
        seq_lens: &[u64],
    ) -> Result<f64, SimError> {
        if tp == 0 {
            return Err(SimError::InvalidConfig("zero parallel degree".into()));
        }
        if seq_lens.len() < self.spec.pp as usize {
            return Err(SimError::InvalidConfig(format!(
                "{} requests cannot fill PP={} micro-batches",
                seq_lens.len(),
                self.spec.pp
            )));
        }
        let (det, _) = self
            .decode_detail(model, tp, model.num_layers, seq_lens)
            .map_err(SimError::from)?;
        let beat_secs = neupims_types::units::cycles_to_secs(det.beat);
        Ok(seq_lens.len() as f64 / self.spec.pp as f64 / beat_secs)
    }
}

impl<B: Backend> Backend for ShardedBackend<B> {
    fn label(&self) -> &str {
        &self.label
    }

    fn caps(&self) -> BackendCaps {
        self.inner.caps()
    }

    fn peak_compute(&self) -> f64 {
        // Aggregate peak of the whole deployment.
        self.inner.peak_compute() * self.spec.devices() as f64
    }

    fn mem_config(&self) -> neupims_types::MemConfig {
        self.inner.mem_config()
    }

    fn interconnect(&self) -> neupims_types::config::InterconnectConfig {
        self.inner.interconnect()
    }

    fn preferred_cost_model(&self) -> neupims_sched::CostModelKind {
        self.inner.preferred_cost_model()
    }

    fn mha_cost_model(
        &self,
        model: &LlmConfig,
        tp: u32,
        kind: neupims_sched::CostModelKind,
    ) -> Option<Box<dyn neupims_sched::MhaCostModel>> {
        self.inner
            .mha_cost_model(model, tp.max(1).saturating_mul(self.spec.tp), kind)
    }

    fn attach_trace_memo(&mut self, memo: &neupims_sched::TraceMemo) -> bool {
        self.inner.attach_trace_memo(memo)
    }

    fn prefill_cycles(
        &self,
        model: &LlmConfig,
        tp: u32,
        layers: u32,
        prompt_lens: &[u64],
    ) -> Result<Cycle, BackendError> {
        let pp = self.spec.pp;
        let inner_tp = self.inner_tp(model, tp, layers)?;
        let stage = self
            .inner
            .prefill_cycles(model, inner_tp, layers / pp, prompt_lens)?;
        // Prefill is a single pass: the prompt activations walk every
        // stage in sequence, paying one inter-stage hop per boundary.
        // (The inner backend's own collective pricing stands — prefill
        // exposes no collective term to lift.)
        let tokens: u64 = prompt_lens.iter().sum();
        let act_bytes =
            tokens * model.d_model as u64 * model.dtype.size_bytes() / inner_tp.max(1) as u64;
        let hops = (pp as u64 - 1) * self.interconnect.point_to_point_cycles(act_bytes);
        Ok(stage * pp as u64 + hops)
    }

    fn decode_iteration(
        &self,
        model: &LlmConfig,
        tp: u32,
        layers: u32,
        seq_lens: &[u64],
    ) -> Result<IterationResult, BackendError> {
        let (det, inner) = self.decode_detail(model, tp, layers, seq_lens)?;
        // One steady-state pipeline round: every stage advances `pp`
        // beats, delivering the full batch's tokens. Resource counters
        // stay the per-chip, per-stage-visit view of the inner backend;
        // the makespan and the collective term are the sharded ones.
        let mut b = inner.into_breakdown();
        b.total_cycles = det.beat * self.spec.pp as u64;
        b.allreduce_cycles = det.collective_cycles;
        b.tokens = det.tokens;
        Ok(IterationResult::new(self.label.clone(), b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{GpuRooflineBackend, TransPimBackend};
    use crate::device::{Device, DeviceMode};
    use crate::interconnect::{IdealLink, NocLink, PcieLink, UnifiedMemoryLink};
    use crate::testsupport::{table2_device, table2_pair};

    fn backend() -> Device {
        table2_device(DeviceMode::neupims())
    }

    /// Tokens/s of `b` deployed as Figure 14 does: `pp` stages over the
    /// backend's own link, priced at device-internal `tp`.
    fn fig14_tokens_per_sec<B: Backend>(
        b: &B,
        model: &LlmConfig,
        tp: u32,
        pp: u32,
        seqs: &[u64],
    ) -> f64 {
        ShardedBackend::new(
            b,
            ClusterSpec::new(1, pp),
            Box::new(PcieLink::from_config(b.interconnect())),
        )
        .unwrap()
        .cluster_tokens_per_sec(model, tp, seqs)
        .unwrap()
    }

    #[test]
    fn ideal_fabric_collapses_to_inner_pricing() {
        let b = backend();
        let model = LlmConfig::gpt3_7b();
        let sharded = ShardedBackend::new(&b, ClusterSpec::new(1, 1), Box::new(IdealLink)).unwrap();
        let inner = Backend::decode_iteration(&b, &model, 4, model.num_layers, &[300; 64]).unwrap();
        let outer = sharded
            .decode_iteration(&model, 4, model.num_layers, &[300; 64])
            .unwrap();
        assert_eq!(outer.total_cycles(), inner.total_cycles());
        assert_eq!(outer.tokens(), inner.tokens());
    }

    #[test]
    fn slower_fabrics_never_price_less() {
        let b = backend();
        let model = LlmConfig::gpt3_30b();
        let seqs = vec![300u64; 64];
        let spec = ClusterSpec::new(8, 1);
        let price = |ic: Box<dyn Interconnect>| {
            ShardedBackend::new(&b, spec, ic)
                .unwrap()
                .decode_iteration(&model, 1, model.num_layers, &seqs)
                .unwrap()
                .total_cycles()
        };
        let ideal = price(Box::new(IdealLink));
        let fast = price(Box::new(PcieLink::from_gbps(512.0)));
        let slow = price(Box::new(PcieLink::from_gbps(8.0)));
        assert!(ideal <= fast && fast <= slow, "{ideal} <= {fast} <= {slow}");
        // The other fabrics price something too.
        assert!(price(Box::<UnifiedMemoryLink>::default()) >= ideal);
        assert!(price(Box::<NocLink>::default()) >= ideal);
    }

    #[test]
    fn detail_accounts_every_term() {
        let b = backend();
        let model = LlmConfig::gpt3_30b();
        let sharded =
            ShardedBackend::new(&b, ClusterSpec::new(4, 2), Box::new(PcieLink::default())).unwrap();
        let (det, _) = sharded
            .decode_detail(&model, 1, model.num_layers, &[300; 64])
            .unwrap();
        assert!(det.collective_cycles > 0);
        assert!(det.pp_transfer_cycles > 0);
        assert_eq!(
            det.beat,
            (det.stage_compute_cycles + det.collective_cycles).max(det.pp_transfer_cycles)
        );
        assert_eq!(det.tokens, 64);
    }

    #[test]
    fn invalid_deployments_are_rejected() {
        let b = backend();
        let model = LlmConfig::gpt3_7b(); // 32 layers
        let seqs = [100u64; 16];
        let mk = |tp, pp| ShardedBackend::new(&b, ClusterSpec::new(tp, pp), Box::new(IdealLink));
        // Zero degrees, in the spec or in the caller's device TP.
        assert!(mk(0, 1).is_err());
        assert!(mk(1, 0).is_err());
        assert!(mk(1, 2)
            .unwrap()
            .cluster_tokens_per_sec(&model, 0, &seqs)
            .is_err());
        // 32 layers do not divide into 5 stages.
        let s = mk(4, 5).unwrap();
        assert!(s
            .decode_iteration(&model, 1, model.num_layers, &seqs)
            .is_err());
        assert!(s.cluster_tokens_per_sec(&model, 1, &seqs).is_err());
        // Fewer requests than micro-batches.
        assert!(mk(4, 2)
            .unwrap()
            .cluster_tokens_per_sec(&model, 1, &[100; 1])
            .is_err());
        assert!(
            mk(1, 32)
                .unwrap()
                .cluster_tokens_per_sec(&model, 4, &seqs)
                .is_err(),
            "16 requests cannot fill 32 micro-batches"
        );
        assert!(mk(4, 2)
            .unwrap()
            .decode_iteration(&model, 1, model.num_layers, &[])
            .is_err());
    }

    #[test]
    fn tp_above_the_head_count_is_rejected() {
        let b = backend();
        let model = LlmConfig::gpt3_7b(); // 32 heads
        let mk =
            |tp| ShardedBackend::new(&b, ClusterSpec::new(tp, 1), Box::new(IdealLink)).unwrap();
        let layers = model.num_layers;
        let err = mk(33)
            .decode_iteration(&model, 1, layers, &[100; 4])
            .unwrap_err();
        assert!(err.to_string().contains("TP=33"), "{err}");
        let err = mk(33).prefill_cycles(&model, 1, layers, &[64]).unwrap_err();
        assert!(err.to_string().contains("TP=33"), "{err}");
        // The caller's device TP composes with the spec's: 8 x 8 > 32.
        assert!(mk(8)
            .decode_iteration(&model, 8, layers, &[100; 4])
            .is_err());
        // One head per device still prices.
        assert!(mk(32)
            .decode_iteration(&model, 1, layers, &[100; 4])
            .is_ok());
        assert!(mk(32).prefill_cycles(&model, 1, layers, &[64]).is_ok());
    }

    #[test]
    fn remainder_requests_are_not_ignored() {
        // 17 and 18 requests at PP=2 share the same 9-request
        // representative micro-batch, so their throughputs sit in the
        // exact ratio of their request counts: the remainder request is
        // counted, not truncated away.
        let b = backend();
        let model = LlmConfig::gpt3_7b();
        let t17 = fig14_tokens_per_sec(&b, &model, 4, 2, &[300; 17]);
        let t18 = fig14_tokens_per_sec(&b, &model, 4, 2, &[300; 18]);
        assert!(t17 > 0.0 && t18 > 0.0);
        assert!(
            (t17 / t18 - 17.0 / 18.0).abs() < 1e-9,
            "remainder request dropped: {t17} vs {t18}"
        );
    }

    #[test]
    fn spec_counts_devices() {
        assert_eq!(ClusterSpec::new(8, 4).devices(), 32);
    }

    #[test]
    fn per_device_efficiency_falls_with_scale() {
        // Figure 14's note: with the total request count fixed, growing the
        // cluster shrinks per-device batches and per-device throughput.
        let b = backend();
        let model = LlmConfig::gpt3_7b();
        let seqs = [376u64; 256];
        let t4 = fig14_tokens_per_sec(&b, &model, 4, 1, &seqs);
        let t32 = fig14_tokens_per_sec(&b, &model, 8, 4, &seqs);
        assert!(
            t4 / 4.0 > t32 / 32.0,
            "per-device: 4dev {:.0} vs 32dev {:.0}",
            t4 / 4.0,
            t32 / 32.0
        );
    }

    #[test]
    fn scaling_sweeps_run_on_every_backend() {
        // (TP, PP) deployments price the GPU roofline and TransPIM too,
        // not just the NeuPIMs device.
        let (cfg, cal) = table2_pair();
        let model = LlmConfig::gpt3_7b();
        let seqs = [300u64; 64];
        let gpu = GpuRooflineBackend::a100();
        let trans = TransPimBackend::new(cfg, cal);
        for pp in [1, 2] {
            let g = fig14_tokens_per_sec(&gpu, &model, 4, pp, &seqs);
            let t = fig14_tokens_per_sec(&trans, &model, 4, pp, &seqs);
            assert!(t > 0.0, "pp{pp}");
            assert!(g > t, "GPU must outserve TransPIM at pp{pp}");
        }
    }

    #[test]
    fn serving_config_view_prices_small_batches() {
        // Serving calls decode with whatever batch is resident — below
        // `pp` the pipeline runs underfilled but must still price.
        let b = backend();
        let model = LlmConfig::gpt3_7b();
        let s =
            ShardedBackend::new(&b, ClusterSpec::new(2, 4), Box::new(PcieLink::default())).unwrap();
        let r = s
            .decode_iteration(&model, 1, model.num_layers, &[64; 2])
            .unwrap();
        assert!(r.total_cycles() > 0);
        assert_eq!(r.tokens(), 2);
    }

    #[test]
    fn label_names_the_deployment() {
        let b = backend();
        let s = ShardedBackend::new(&b, ClusterSpec::new(4, 2), Box::new(IdealLink)).unwrap();
        assert!(s.label().contains("tp4 pp2"), "{}", s.label());
        assert!(s.label().contains("NeuPIMs"), "{}", s.label());
        assert!(s.label().contains("x8 "), "{}", s.label());
        assert!(s.label().ends_with("ideal)"), "{}", s.label());
    }
}
