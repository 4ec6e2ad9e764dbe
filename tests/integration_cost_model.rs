//! Integration tests of the MHA cost-model refactor: the trace-driven
//! model drives the full serving path, the analytic default is unchanged,
//! and channel statistics surface through every layer.

use neupims_core::backend::{backend_from_name_with_cost, Backend};
use neupims_core::device::Device;
use neupims_core::fleet::{FleetRequest, FleetSim, JoinShortestQueue};
use neupims_core::scheduler::scheduler_from_name;
use neupims_core::serving::{ServingConfig, ServingSim};
use neupims_core::system::SystemSpec;
use neupims_pim::calibrate;
use neupims_sched::CostModelKind;
use neupims_types::{LlmConfig, NeuPimsConfig};

fn serving_cfg(max_batch: usize) -> ServingConfig {
    ServingConfig {
        max_batch,
        tp: 4,
        layers: 32,
        target_completions: 0,
        slo: None,
    }
}

fn run_serving(kind: CostModelKind) -> neupims_core::serving::ServingOutcome {
    let mut sim = ServingSim::with_scheduler(
        Device::table2().unwrap().with_cost_model(kind),
        LlmConfig::gpt3_7b(),
        serving_cfg(16),
        scheduler_from_name("interleaved", 256).unwrap(),
    )
    .with_cost_model(kind);
    for i in 0..24u32 {
        sim.submit(i, 200 + (i % 7) * 64, 4 + i % 5, (i as u64) * 100_000)
            .unwrap();
    }
    sim.run().unwrap()
}

#[test]
fn trace_driven_serving_completes_and_reports_channel_stats() {
    let out = run_serving(CostModelKind::TraceDriven);
    assert_eq!(out.completed, 24);
    assert_eq!(out.completed + out.dropped, out.submitted);
    assert!(out.overlap_hidden_cycles > 0, "interleaving must overlap");

    let trace = out.pim_trace.expect("trace-driven run must report stats");
    assert!(trace.replays > 0, "some streams must have been simulated");
    assert!(
        trace.memo_hits > trace.replays,
        "memoization must dominate: {} hits vs {} replays",
        trace.memo_hits,
        trace.replays
    );
    assert!(trace.stats.pim_acts > 0, "PIM activations counted");
    assert!(trace.stats.refreshes > 0, "refresh is part of the streams");
    assert!(trace.stats.row_misses > 0, "GEMV streams are all-miss");
    assert_eq!(trace.stats.row_hits, 0, "no row reuse in a GEMV stream");
}

#[test]
fn analytic_serving_reports_no_trace_and_stays_default() {
    let out = run_serving(CostModelKind::Analytic);
    assert_eq!(out.completed, 24);
    assert!(
        out.pim_trace.is_none(),
        "analytic pricing simulates nothing"
    );

    // The knob defaults to analytic: an untouched sim equals an explicit
    // analytic one, outcome for outcome.
    let mut plain = ServingSim::with_scheduler(
        Device::table2().unwrap(),
        LlmConfig::gpt3_7b(),
        serving_cfg(16),
        scheduler_from_name("interleaved", 256).unwrap(),
    );
    assert_eq!(plain.cost_model_kind(), CostModelKind::Analytic);
    for i in 0..24u32 {
        plain
            .submit(i, 200 + (i % 7) * 64, 4 + i % 5, (i as u64) * 100_000)
            .unwrap();
    }
    assert_eq!(plain.run().unwrap(), out);
}

#[test]
fn trace_and_analytic_serving_agree_closely() {
    // The cost models agree within a few percent per request, so the
    // end-to-end serving clocks must land close together — and certainly
    // within the 2x performance/fidelity budget the refactor promises.
    let analytic = run_serving(CostModelKind::Analytic);
    let trace = run_serving(CostModelKind::TraceDriven);
    let ratio = trace.total_cycles as f64 / analytic.total_cycles as f64;
    assert!(
        (0.8..1.25).contains(&ratio),
        "trace {} vs analytic {} (ratio {ratio:.3})",
        trace.total_cycles,
        analytic.total_cycles
    );
}

#[test]
fn registry_builds_trace_driven_backends_for_every_pim_system() {
    let cfg = NeuPimsConfig::table2();
    let cal = calibrate(&cfg).unwrap();
    let model = LlmConfig::gpt3_7b();
    for name in ["naive", "neupims", "neupims-drb"] {
        let analytic =
            backend_from_name_with_cost(name, &cfg, &cal, CostModelKind::Analytic).unwrap();
        let trace =
            backend_from_name_with_cost(name, &cfg, &cal, CostModelKind::TraceDriven).unwrap();
        let ta = analytic
            .decode_iteration(&model, 4, 8, &[376; 64])
            .unwrap()
            .total_cycles();
        let tt = trace
            .decode_iteration(&model, 4, 8, &[376; 64])
            .unwrap()
            .total_cycles();
        let ratio = tt as f64 / ta as f64;
        assert!(
            (0.7..1.4).contains(&ratio),
            "{name}: analytic {ta} vs trace {tt}"
        );
        // The trace-driven backend exposes a stats-bearing cost model.
        let cm = trace
            .mha_cost_model(&model, 4, CostModelKind::TraceDriven)
            .unwrap();
        assert_eq!(cm.name(), "trace");
        assert!(cm.trace_snapshot().unwrap().replays > 0);
    }
    // The GPU baseline has no PIM: the knob is accepted and ignored.
    let gpu = backend_from_name_with_cost("gpu", &cfg, &cal, CostModelKind::TraceDriven).unwrap();
    assert!(gpu
        .mha_cost_model(&model, 4, CostModelKind::TraceDriven)
        .is_none());
}

#[test]
fn backend_configured_kind_is_the_serving_default() {
    // Regression: configuring only the backend used to leave the serving
    // layer pricing analytically (mixed fidelity, no pim_trace). The
    // backend's preferred kind must flow through as the serving default.
    let mut sim = ServingSim::with_scheduler(
        Device::table2()
            .unwrap()
            .with_cost_model(CostModelKind::TraceDriven),
        LlmConfig::gpt3_7b(),
        serving_cfg(8),
        scheduler_from_name("interleaved", 128).unwrap(),
    );
    assert_eq!(sim.cost_model_kind(), CostModelKind::TraceDriven);
    for i in 0..4 {
        sim.submit(i, 128, 3, 0).unwrap();
    }
    let out = sim.run().unwrap();
    assert_eq!(out.completed, 4);
    assert!(out.pim_trace.expect("coherent trace run").replays > 0);
}

#[test]
fn builder_without_override_follows_the_backend_kind() {
    // Regression: the serving layer used to clobber the backend's
    // configured kind with an analytic default. A replica built from a
    // trace-priced spec must price its scheduler the way its backend
    // prices decode, and yield a trace-priced serving run.
    let spec = SystemSpec {
        cost_model: CostModelKind::TraceDriven,
        scheduler: "interleaved".into(),
        chunk_tokens: 128,
        max_batch: 8,
        ..SystemSpec::default()
    };
    let mut serving = spec.replica(0, None).unwrap();
    assert_eq!(
        serving.backend().preferred_cost_model(),
        CostModelKind::TraceDriven
    );
    assert_eq!(serving.cost_model_kind(), CostModelKind::TraceDriven);
    for i in 0..4 {
        serving.submit(i, 128, 3, 0).unwrap();
    }
    let out = serving.run().unwrap();
    assert!(
        out.pim_trace
            .expect("backend kind must flow through")
            .replays
            > 0
    );
}

#[test]
fn fleet_dedupes_shared_memo_snapshots() {
    // Replicas cloned from one backend share a replay memo; the fleet
    // outcome must count that memo's streams once, not once per replica.
    let shared = Device::table2()
        .unwrap()
        .with_cost_model(CostModelKind::TraceDriven);
    let replicas: Vec<_> = (0..3)
        .map(|_| {
            ServingSim::with_scheduler(
                shared.clone(),
                LlmConfig::gpt3_7b(),
                serving_cfg(8),
                scheduler_from_name("interleaved", 128).unwrap(),
            )
        })
        .collect();
    let mut fleet = FleetSim::new(replicas, Box::new(JoinShortestQueue)).unwrap();
    for i in 0..9u32 {
        fleet
            .submit(FleetRequest {
                id: i,
                input_len: 96,
                output_len: 3,
                arrival: i as u64 * 50_000,
            })
            .unwrap();
    }
    let out = fleet.run().unwrap();
    assert_eq!(out.completed, 9);
    let fleet_trace = out.pim_trace.expect("trace fleet reports stats");
    // All replicas snapshot the same cumulative memo after the drain, so
    // the deduped fleet view equals each replica's view (a plain sum
    // would report ~3x).
    let per_replica = out.replicas[0].pim_trace.expect("replica stats");
    assert_eq!(fleet_trace.replays, per_replica.replays);
    assert_eq!(fleet_trace.memo_hits, per_replica.memo_hits);
    assert_eq!(fleet_trace.stats.pim_acts, per_replica.stats.pim_acts);
}

#[test]
fn deprecated_estimator_shim_matches_analytic_cost_model() {
    let backend = Device::table2().unwrap();
    let model = LlmConfig::gpt3_7b();
    #[allow(deprecated)]
    let legacy = backend.mha_estimator(&model, 4).unwrap();
    let modern = backend
        .mha_cost_model(&model, 4, CostModelKind::Analytic)
        .unwrap();
    for seq in [0u64, 1, 100, 512, 4096] {
        assert_eq!(
            modern.estimate(seq).to_bits(),
            legacy.estimate(seq).to_bits(),
            "seq {seq}"
        );
    }
}

#[test]
fn simulation_builder_and_fleet_thread_the_knob() {
    // Replica: the system spec's cost model reaches the replica it builds.
    let spec = SystemSpec {
        cost_model: CostModelKind::TraceDriven,
        max_batch: 8,
        ..SystemSpec::default()
    };
    let mut serving = spec.replica(0, None).unwrap();
    assert_eq!(serving.cost_model_kind(), CostModelKind::TraceDriven);
    for i in 0..6 {
        serving.submit(i, 128, 3, 0).unwrap();
    }
    let out = serving.run().unwrap();
    assert_eq!(out.completed, 6);
    assert!(out.pim_trace.is_some());

    // Fleet: the knob set on every replica, and the outcome merges the
    // per-replica channel stats.
    // Interleaved replicas: the cost model actually prices PIM phases
    // (under lump prefill it would sit unqueried and report zero replays).
    let replicas: Vec<_> = (0..2)
        .map(|_| {
            ServingSim::with_scheduler(
                Device::table2().unwrap(),
                LlmConfig::gpt3_7b(),
                serving_cfg(8),
                scheduler_from_name("interleaved", 128).unwrap(),
            )
            .with_cost_model(CostModelKind::TraceDriven)
        })
        .collect();
    let mut fleet = FleetSim::new(replicas, Box::new(JoinShortestQueue)).unwrap();
    for i in 0..8u32 {
        fleet
            .submit(FleetRequest {
                id: i,
                input_len: 96,
                output_len: 3,
                arrival: i as u64 * 50_000,
            })
            .unwrap();
    }
    let out = fleet.run().unwrap();
    assert_eq!(out.completed, 8);
    let trace = out.pim_trace.expect("fleet must merge replica stats");
    assert!(trace.replays > 0);
    assert!(trace.stats.pim_acts > 0);
}
