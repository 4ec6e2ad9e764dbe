//! Golden pins of `ServingSim::step` on a tight-KV, preemption-heavy trace.
//!
//! The parity tests compare engines that all step replicas through the
//! same `ServingSim`, so a bookkeeping change inside `step` would move
//! both sides together and pass. These pins were recorded once and hold
//! the serving loop itself to them: every backend × scheduler × preemption
//! combination must reproduce its recorded cycle count, counters, KV
//! high-water mark (bit for bit) and a digest of every per-request record
//! in completion order.

use neupims_core::backend::{
    Backend, BackendCaps, BackendError, GpuRooflineBackend, IterationResult,
};
use neupims_core::preempt::preemption_from_name;
use neupims_core::scheduler::scheduler_from_name;
use neupims_core::serving::{ServingConfig, ServingOutcome, ServingSim};
use neupims_core::{Device, DeviceMode};
use neupims_pim::calibrate;
use neupims_types::{Cycle, LlmConfig, MemConfig, NeuPimsConfig};
use neupims_workload::{kv_pressure_burst, PressureSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SCHEDULERS: [&str; 3] = ["lump", "chunked", "interleaved"];
const PREEMPTIONS: [&str; 3] = ["drop", "recompute", "swap"];

/// Four 80 MiB channels: a few hundred tokens of context crowd one.
fn tight_hw() -> NeuPimsConfig {
    let mut hw = NeuPimsConfig::table2();
    hw.mem.channels = 4;
    hw.mem.capacity_per_channel = 80 << 20;
    hw
}

/// The GPU roofline paging its KV cache over the tight memory system.
#[derive(Debug)]
struct TightGpu {
    gpu: GpuRooflineBackend,
    mem: MemConfig,
}

impl Backend for TightGpu {
    fn label(&self) -> &str {
        self.gpu.label()
    }

    fn caps(&self) -> BackendCaps {
        self.gpu.caps()
    }

    fn peak_compute(&self) -> f64 {
        self.gpu.peak_compute()
    }

    fn mem_config(&self) -> MemConfig {
        self.mem
    }

    fn prefill_cycles(
        &self,
        model: &LlmConfig,
        tp: u32,
        layers: u32,
        prompt_lens: &[u64],
    ) -> Result<Cycle, BackendError> {
        self.gpu.prefill_cycles(model, tp, layers, prompt_lens)
    }

    fn decode_iteration(
        &self,
        model: &LlmConfig,
        tp: u32,
        layers: u32,
        seq_lens: &[u64],
    ) -> Result<IterationResult, BackendError> {
        self.gpu.decode_iteration(model, tp, layers, seq_lens)
    }
}

/// The default KV-pressure burst trace behind one request that can never
/// fit an empty channel (the head-drop path).
fn submit_trace<B: Backend>(sim: &mut ServingSim<B>) {
    sim.submit(0, 8192, 4, 0).unwrap();
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let trace = kv_pressure_burst(&mut rng, &PressureSpec::default());
    for (id, r) in (1..).zip(&trace) {
        sim.submit(id, r.input_len, r.output_len, r.arrival)
            .unwrap();
    }
}

fn run<B: Backend>(backend: B, scheduler: &str, preemption: &str) -> ServingOutcome {
    let cfg = ServingConfig {
        max_batch: 16,
        tp: 4,
        layers: 32,
        target_completions: 0,
        slo: None,
    };
    let mut sim = ServingSim::with_scheduler(
        backend,
        LlmConfig::gpt3_7b(),
        cfg,
        scheduler_from_name(scheduler, 64).unwrap(),
    )
    .with_preemption(preemption_from_name(preemption).unwrap())
    .with_records();
    submit_trace(&mut sim);
    sim.run().unwrap()
}

/// FNV-1a over every field of every record, in completion order.
fn records_digest(out: &ServingOutcome) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for r in out.records.iter() {
        for word in [
            u64::from(r.id.0),
            r.arrival,
            r.ttft,
            r.latency,
            u64::from(r.tokens),
            u64::from(r.preemptions),
        ] {
            for byte in word.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
    h
}

/// What one run is pinned to: `total_cycles`, `completed`, `dropped`,
/// `preemptions`, `restores`, `iterations`, the bits of
/// `peak_kv_utilization`, and [`records_digest`].
fn pin(out: &ServingOutcome) -> [u64; 8] {
    [
        out.total_cycles,
        out.completed,
        out.dropped,
        out.preemptions,
        out.restores,
        out.iterations,
        out.peak_kv_utilization.to_bits(),
        records_digest(out),
    ]
}

/// `(backend, scheduler, preemption, pin)`, recorded before the serving
/// loop's per-request state was consolidated into one table.
#[rustfmt::skip]
const GOLDEN: [(&str, &str, &str, [u64; 8]); 18] = [
    ("gpu", "lump", "drop", [1368959967, 8, 17, 0, 0, 565, 4607027607562826547, 4418097216307762312]),
    ("gpu", "lump", "recompute", [2519583032, 24, 1, 54, 54, 1032, 4607097976307004211, 9317541113912329778]),
    ("gpu", "lump", "swap", [2449425206, 24, 1, 56, 56, 1001, 4607097976307004211, 11223146700490477235]),
    ("gpu", "chunked", "drop", [1173813611, 4, 21, 0, 0, 461, 4606915017572142285, 11253812765465303729]),
    ("gpu", "chunked", "recompute", [2939762772, 24, 1, 63, 63, 1153, 4607083902558168678, 15939423016850897759]),
    ("gpu", "chunked", "swap", [2600130777, 24, 1, 58, 58, 1089, 4607097976307004211, 5588873712175717190]),
    ("gpu", "interleaved", "drop", [1173813611, 4, 21, 0, 0, 461, 4606915017572142285, 11253812765465303729]),
    ("gpu", "interleaved", "recompute", [2939762772, 24, 1, 63, 63, 1153, 4607083902558168678, 15939423016850897759]),
    ("gpu", "interleaved", "swap", [2600130777, 24, 1, 58, 58, 1089, 4607097976307004211, 5588873712175717190]),
    ("neupims", "lump", "drop", [22098011040, 8, 17, 0, 0, 565, 4607027607562826547, 7720552708987020937]),
    ("neupims", "lump", "recompute", [40755458464, 24, 1, 79, 79, 1041, 4607055755060497613, 2377319939503140714]),
    ("neupims", "lump", "swap", [39939965280, 24, 1, 69, 69, 1020, 4607140197553510810, 11634215368322520034]),
    ("neupims", "chunked", "drop", [18787782720, 4, 21, 0, 0, 461, 4606915017572142285, 6241000371583035556]),
    ("neupims", "chunked", "recompute", [46736652608, 24, 1, 53, 53, 1189, 4607097976307004211, 12569965680828482397]),
    ("neupims", "chunked", "swap", [41262994304, 24, 1, 52, 52, 1102, 4607112050055839744, 4513641133580895656]),
    ("neupims", "interleaved", "drop", [18757704727, 4, 21, 0, 0, 461, 4606915017572142285, 5637137469948031443]),
    ("neupims", "interleaved", "recompute", [46648404626, 24, 1, 53, 53, 1189, 4607097976307004211, 7939392181038015621]),
    ("neupims", "interleaved", "swap", [41255147310, 24, 1, 52, 52, 1102, 4607112050055839744, 11933618171088993220]),
];

#[test]
fn serving_matches_recorded_goldens() {
    let hw = tight_hw();
    let cal = calibrate(&hw).unwrap();
    let mut actual = Vec::new();
    for backend in ["gpu", "neupims"] {
        for scheduler in SCHEDULERS {
            for preemption in PREEMPTIONS {
                let out = match backend {
                    "gpu" => run(
                        TightGpu {
                            gpu: GpuRooflineBackend::a100(),
                            mem: hw.mem,
                        },
                        scheduler,
                        preemption,
                    ),
                    _ => run(
                        Device::new(hw, cal, DeviceMode::neupims()),
                        scheduler,
                        preemption,
                    ),
                };
                assert_eq!(out.completed + out.dropped, out.submitted);
                actual.push((backend, scheduler, preemption, pin(&out)));
            }
        }
    }
    let table: String = actual
        .iter()
        .map(|(b, s, p, pin)| format!("    ({b:?}, {s:?}, {p:?}, {pin:?}),\n"))
        .collect();
    assert_eq!(actual.len(), GOLDEN.len(), "recorded table:\n{table}");
    for (got, want) in actual.iter().zip(&GOLDEN) {
        assert_eq!(got, want, "recorded table:\n{table}");
    }
}

#[test]
fn the_trace_exercises_every_pressure_path() {
    // The pins are only worth having if the trace reaches the paths they
    // guard: the head drop, drop-only shedding, and preempt/restore.
    let hw = tight_hw();
    let cal = calibrate(&hw).unwrap();
    for (preemption, name) in PREEMPTIONS.iter().zip(["shed", "recompute", "swap"]) {
        let out = run(
            Device::new(hw, cal, DeviceMode::neupims()),
            "lump",
            preemption,
        );
        assert!(out.dropped >= 1, "{name}: the oversized head must drop");
        if *preemption == "drop" {
            assert!(out.dropped > 1, "drop-only must shed under crowding");
        } else {
            assert!(out.preemptions > 0, "{name} must preempt");
            assert!(out.restores > 0, "{name} must restore");
        }
    }
}
