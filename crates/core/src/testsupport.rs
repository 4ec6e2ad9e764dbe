//! Shared test-support helpers for this crate's module tests.
//!
//! Nearly every test in `simulation`, `system`, `sharding`, `serving`,
//! `device`, `transpim`, and `backend` needs the Table 2 configuration
//! with its PIM constants calibrated from the cycle model. These helpers
//! build it in one call each; [`calibrate`] measures a configuration once
//! per process, so every test after the first shares that measurement.

use neupims_pim::{calibrate, PimCalibration};
use neupims_types::{LlmConfig, NeuPimsConfig};

use crate::backend::{BackendCaps, CapabilityProfile, GpuRooflineBackend};
use crate::device::{Device, DeviceMode};
use crate::fleet::ReplicaSnapshot;
use crate::serving::{ServingConfig, ServingSim};

/// The Table 2 configuration next to its calibration.
pub(crate) fn table2_pair() -> (NeuPimsConfig, PimCalibration) {
    let cfg = NeuPimsConfig::table2();
    let cal = calibrate(&cfg).expect("Table 2 configuration must calibrate");
    (cfg, cal)
}

/// A Table 2 device in `mode`.
pub(crate) fn table2_device(mode: DeviceMode) -> Device {
    Device::table2_mode(mode).expect("Table 2 configuration must calibrate")
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
/// orchestrator tests. They keep their records, so a test can check what
/// each one served.
pub(crate) fn gpu_replicas(n: usize) -> Vec<ServingSim<GpuRooflineBackend>> {
    let gpu = || {
        ServingSim::new(GpuRooflineBackend::a100(), LlmConfig::gpt3_7b(), cfg_of(8)).with_records()
    };
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
