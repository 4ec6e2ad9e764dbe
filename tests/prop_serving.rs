//! Property tests on the serving path: request conservation
//! (`completed + dropped == submitted`), latency sanity (TTFT bounded by
//! end-to-end latency), and fleet-level conservation under every dispatch
//! policy.

use proptest::prelude::*;

use neupims_core::backend::GpuRooflineBackend;
use neupims_core::fleet::{policy_from_name, FleetRequest, FleetSim, POLICY_NAMES};
use neupims_core::serving::{ServingConfig, ServingSim};
use neupims_types::LlmConfig;

fn cfg(max_batch: usize) -> ServingConfig {
    ServingConfig {
        max_batch,
        tp: 4,
        layers: 32,
        target_completions: 0,
        slo: None,
    }
}

fn gpu_sim(max_batch: usize) -> ServingSim<GpuRooflineBackend> {
    ServingSim::new(
        GpuRooflineBackend::a100(),
        LlmConfig::gpt3_7b(),
        cfg(max_batch),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Drained runs conserve every submitted request, and per-request
    /// timing is sane: positive TTFT never exceeding end-to-end latency,
    /// non-negative TPOT, tokens matching the request's target.
    #[test]
    fn serving_conserves_requests_and_orders_timings(
        requests in prop::collection::vec((1u32..300, 1u32..10, 0u64..5_000_000), 1..24),
        max_batch in 1usize..9,
    ) {
        let mut sim = gpu_sim(max_batch).with_records();
        let mut expected_tokens = 0u64;
        for (i, &(input, output, arrival)) in requests.iter().enumerate() {
            expected_tokens += output as u64;
            sim.submit(i as u32, input, output, arrival).unwrap();
        }
        let out = sim.run().unwrap();
        prop_assert_eq!(out.submitted, requests.len() as u64);
        prop_assert_eq!(out.completed + out.dropped, out.submitted);
        prop_assert_eq!(out.dropped, 0, "ample memory: nothing may drop");
        prop_assert_eq!(out.tokens, expected_tokens);
        prop_assert_eq!(out.records.len() as u64, out.completed);
        // Percentiles read the samples: nearest rank over the records'
        // sorted latencies, monotone in `p`.
        let mut latencies: Vec<u64> = out.records.iter().map(|r| r.latency).collect();
        latencies.sort_unstable();
        let mut last = 0;
        for p in [0.0, 25.0, 50.0, 90.0, 99.0, 100.0] {
            let rank = ((p / 100.0) * latencies.len() as f64).ceil().max(1.0) as usize - 1;
            let at = out.latency_percentile(p);
            prop_assert_eq!(at, latencies[rank]);
            prop_assert!(at >= last);
            last = at;
        }
        for r in out.records.iter() {
            prop_assert!(r.ttft > 0, "prefill must charge a nonzero TTFT");
            prop_assert!(r.ttft <= r.latency, "{:?}", r);
            prop_assert!(r.tpot() >= 0.0, "{:?}", r);
            let (input, output, arrival) = requests[r.id.0 as usize];
            prop_assert_eq!(r.tokens, output);
            prop_assert_eq!(r.arrival, arrival);
            prop_assert!(input > 0);
        }
    }

    /// Duplicate ids are rejected without corrupting the accounting of
    /// the accepted submissions.
    #[test]
    fn duplicate_ids_never_corrupt_accounting(
        outputs in prop::collection::vec(1u32..6, 1..10),
        dup_at in 0usize..10,
    ) {
        let mut sim = gpu_sim(4);
        for (i, &output) in outputs.iter().enumerate() {
            sim.submit(i as u32, 16, output, 0).unwrap();
        }
        let dup = (dup_at % outputs.len()) as u32;
        prop_assert!(sim.submit(dup, 16, 1, 0).is_err());
        let out = sim.run().unwrap();
        prop_assert_eq!(out.submitted, outputs.len() as u64);
        prop_assert_eq!(out.completed, outputs.len() as u64);
        prop_assert_eq!(out.tokens, outputs.iter().map(|&o| o as u64).sum::<u64>());
    }

    /// The fleet conserves requests under every dispatch policy, and its
    /// aggregate equals the sum of its replicas.
    #[test]
    fn fleet_conserves_requests_under_every_policy(
        requests in prop::collection::vec((1u32..200, 1u32..8, 0u64..3_000_000), 1..20),
        replicas in 1usize..5,
        policy_idx in 0usize..3,
    ) {
        let sims: Vec<ServingSim<GpuRooflineBackend>> = (0..replicas)
            .map(|_| gpu_sim(4))
            .collect();
        let policy = policy_from_name(POLICY_NAMES[policy_idx % POLICY_NAMES.len()]).unwrap();
        let mut fleet = FleetSim::new(sims, policy).unwrap();
        for (i, &(input, output, arrival)) in requests.iter().enumerate() {
            fleet.submit(FleetRequest {
                id: i as u32,
                input_len: input,
                output_len: output,
                arrival,
            }).unwrap();
        }
        let out = fleet.run().unwrap();
        prop_assert_eq!(out.submitted, requests.len() as u64);
        prop_assert_eq!(out.completed + out.dropped, out.submitted);
        let per_replica: u64 = out.replicas.iter().map(|r| r.completed).sum();
        prop_assert_eq!(per_replica, out.completed);
        let tokens: u64 = out.replicas.iter().map(|r| r.tokens).sum();
        prop_assert_eq!(tokens, out.tokens);
        prop_assert_eq!(out.latencies.len() as u64, out.completed);
    }
}
