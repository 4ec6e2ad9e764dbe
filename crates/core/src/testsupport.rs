//! Shared test-support helpers for this crate's module tests.
//!
//! Nearly every test in `simulation`, `system`, `sharding`, `serving`,
//! `device`, `transpim`, and `backend` needs the Table 2 configuration
//! with its PIM constants calibrated from the cycle model. Calibration is
//! deterministic and not free (five command-stream runs), so this module
//! computes it once per test binary behind a [`OnceLock`] and hands out
//! copies — replacing the `calibrate(&NeuPimsConfig::table2()).unwrap()`
//! boilerplate that used to be repeated in every module's test setup.

use std::sync::OnceLock;

use neupims_pim::{calibrate, PimCalibration};
use neupims_types::{LlmConfig, NeuPimsConfig};

use crate::backend::{BackendCaps, CapabilityProfile, GpuRooflineBackend};
use crate::device::{Device, DeviceMode};
use crate::experiments::ExperimentContext;
use crate::fleet::ReplicaSnapshot;
use crate::serving::{ServingConfig, ServingSim};
use crate::simulation::DEFAULT_SEED;

/// The memoized Table 2 calibration (calibrated once per test binary).
pub(crate) fn table2_calibration() -> PimCalibration {
    static CAL: OnceLock<PimCalibration> = OnceLock::new();
    *CAL.get_or_init(|| {
        calibrate(&NeuPimsConfig::table2()).expect("Table 2 configuration must calibrate")
    })
}

/// The Table 2 configuration next to its memoized calibration.
pub(crate) fn table2_pair() -> (NeuPimsConfig, PimCalibration) {
    (NeuPimsConfig::table2(), table2_calibration())
}

/// The Table 2 experiment context, using the memoized calibration.
pub(crate) fn table2_context() -> ExperimentContext {
    let (cfg, cal) = table2_pair();
    ExperimentContext {
        cfg,
        cal,
        seed: DEFAULT_SEED,
        samples: 10,
    }
}

/// A Table 2 device in `mode`, using the memoized calibration.
pub(crate) fn table2_device(mode: DeviceMode) -> Device {
    let (cfg, cal) = table2_pair();
    Device::new(cfg, cal, mode)
}

/// A drain-to-empty serving config at `max_batch` (TP 4, 32 layers).
pub(crate) fn cfg_of(max_batch: usize) -> ServingConfig {
    ServingConfig {
        max_batch,
        tp: 4,
        layers: 32,
        target_completions: 0,
        slo: None,
    }
}

/// `n` gpt3-7b A100-roofline replicas at `max_batch` 8, for fleet and
/// orchestrator tests.
pub(crate) fn gpu_replicas(n: usize) -> Vec<ServingSim<GpuRooflineBackend>> {
    let gpu = || ServingSim::new(GpuRooflineBackend::a100(), LlmConfig::gpt3_7b(), cfg_of(8));
    (0..n).map(|_| gpu()).collect()
}

/// The snapshot of idle slot `index` on a backend with `caps`, for
/// dispatch and route policy tests.
pub(crate) fn idle_snapshot(index: usize, caps: BackendCaps) -> ReplicaSnapshot {
    ReplicaSnapshot {
        index,
        waiting: 0,
        running: 0,
        preempted: 0,
        outstanding_tokens: 0,
        kv_utilization: 0.0,
        kv_pressure: 0.0,
        profile: CapabilityProfile::for_caps(caps),
    }
}
