//! A one-replica fleet is its replica: dispatching a request stream
//! through [`FleetSim`] with a single replica gives the same outcome as
//! submitting the stream to that [`ServingSim`] up front and stepping it
//! directly, over scheduler × preemption × cost model × TP/interconnect ×
//! arrival rate.
//!
//! The fleet hands a replica each request only at its arrival barrier, so
//! this pins that a barrier never lets a replica's clock run past the
//! arrival it is advanced to (a replica whose whole batch is in lump
//! prefill would otherwise wait through the arrival and admit it late).

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use neupims_core::fleet::{policy_from_name, FleetRequest, FleetSim};
use neupims_core::serving::{Samples, ServingOutcome};
use neupims_core::system::SystemSpec;
use neupims_sched::CostModelKind;
use neupims_types::{NeuPimsConfig, Request};
use neupims_workload::{arrival_times, ArrivalProcess, Dataset};

/// Memo ids are unique per memo instance; zero them so two runs over
/// distinct but equally fed memos compare equal.
fn without_memo_id(mut out: ServingOutcome) -> ServingOutcome {
    if let Some(t) = out.pim_trace.as_mut() {
        t.memo_id = 0;
    }
    out
}

/// A fleet serves every request for its one tenant, 0, and a replica
/// stepped directly serves them for none: relabel the fleet's records so
/// the two outcomes compare equal.
fn untenanted(mut out: ServingOutcome) -> ServingOutcome {
    for r in Arc::make_mut(&mut out.records) {
        assert_eq!(r.tenant, 0, "a fleet serves its one tenant");
        r.tenant = Request::NO_TENANT;
    }
    public_samples(out)
}

/// `out` with its samples cut to their public columns. The tenant column
/// the samples also keep differs as the records' tenants do; the records
/// still compare each request's tenant and tokens.
fn public_samples(mut out: ServingOutcome) -> ServingOutcome {
    let mut samples = Samples::default();
    samples.latencies = out.samples.latencies.clone();
    samples.ttfts = out.samples.ttfts.clone();
    samples.tpots = out.samples.tpots.clone();
    out.samples = Arc::new(samples);
    out
}

const BACKENDS: [&str; 3] = ["neupims", "gpu", "naive"];
const SCHEDULERS: [&str; 3] = ["lump", "chunked", "interleaved"];
const PREEMPTIONS: [&str; 3] = ["drop", "recompute", "swap"];
const FABRICS: [&str; 2] = ["pcie", "noc"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn one_replica_fleet_matches_the_replica_stepped_directly(
        picks in (0usize..3, 0usize..3, 0usize..3, 0usize..2),
        sharding in (0usize..3, 0usize..2),
        kv_mib in prop_oneof![(0u64..1).prop_map(|_| 0u64), 24u64..96],
        rate_tenths in 5u32..80,
        seed in 0u64..1_000_000,
    ) {
        let (backend, scheduler, preemption, trace) = picks;
        let (tp, fabric) = sharding;
        let mut hardware = NeuPimsConfig::table2();
        if kv_mib > 0 {
            // Tight KV per channel, so the preempting policies engage.
            hardware.mem.capacity_per_channel = kv_mib << 20;
        }
        let spec = SystemSpec {
            hardware,
            backend: BACKENDS[backend].into(),
            scheduler: SCHEDULERS[scheduler].into(),
            preemption: PREEMPTIONS[preemption].into(),
            cost_model: if trace == 1 {
                CostModelKind::TraceDriven
            } else {
                CostModelKind::Analytic
            },
            max_batch: 8,
            tp: (tp > 0).then_some(2 * tp as u32),
            interconnect: FABRICS[fabric].into(),
            ..SystemSpec::default()
        };
        let tag = format!("{spec:?} kv_mib={kv_mib} rate={rate_tenths}/10 seed={seed}");

        let mut rng = StdRng::seed_from_u64(seed);
        let rate = f64::from(rate_tenths) / 10.0;
        let requests: Vec<FleetRequest> = arrival_times(&mut rng, &ArrivalProcess::Poisson { rate }, 16)
            .unwrap()
            .into_iter()
            .enumerate()
            .map(|(i, arrival)| FleetRequest {
                id: i as u32,
                input_len: Dataset::ShareGpt.sample_input(&mut rng),
                output_len: Dataset::ShareGpt.sample_output(&mut rng).min(24),
                arrival,
            })
            .collect();

        let memo = spec.trace_memo(None).unwrap();
        let mut direct = spec.replica(0, memo.as_ref()).unwrap().with_records();
        for r in &requests {
            direct.submit(r.id, r.input_len, r.output_len, r.arrival).unwrap();
        }
        let want = public_samples(without_memo_id(direct.run().unwrap()));

        let memo = spec.trace_memo(None).unwrap();
        let replica = spec.replica(0, memo.as_ref()).unwrap().with_records();
        let mut fleet = FleetSim::new(vec![replica], policy_from_name("jsq").unwrap())
            .unwrap()
            .with_jobs(1);
        for &r in &requests {
            fleet.submit(r).unwrap();
        }
        let mut got = fleet.run().unwrap();
        prop_assert_eq!(got.submitted, want.submitted, "{}", tag);
        let got = untenanted(without_memo_id(got.replicas.remove(0)));
        prop_assert_eq!(got, want, "{}", tag);
    }
}
