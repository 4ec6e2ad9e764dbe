//! Exact heap-allocation counts of the decode hot path and of a
//! steady-state serving step.
//!
//! A counting global allocator wraps `System` and counts, per thread,
//! every allocation and reallocation, and the live heap bytes the thread
//! holds. The pins below are exact: a change that adds an allocation to a
//! warm `Device::decode_iteration` or to GMLBP fails here, and a change
//! that removes one must lower the pin. A warm iteration prices, balances
//! and sums its batch in thread-local scratch; what it still allocates is
//! named next to each pin. A steady-state replica holds constant live
//! bytes: no per-iteration log grows with the run, and a fixed fleet run
//! peaks below a pinned number of live bytes per request.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::rngs::StdRng;
use rand::SeedableRng;

use neupims_core::backend::backend_from_name;
use neupims_core::device::{Device, DeviceMode, SbiPolicy};
use neupims_core::fleet::{policy_from_name, FleetRequest, FleetSim};
use neupims_core::scheduler::scheduler_from_name;
use neupims_core::serving::{ServingConfig, ServingSim, SloTargets, StepEvent};
use neupims_pim::calibrate;
use neupims_sched::{CostModelKind, MinLoadPacker};
use neupims_types::{LlmConfig, NeuPimsConfig};
use neupims_workload::{ArrivalProcess, Dataset, ScenarioWorkload, TenantMix};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed on this thread. Signed: a thread
    /// may free what another allocated.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    /// The high-water mark of `LIVE_BYTES` since it was last reset.
    static PEAK_LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Counts one allocation of `bytes`.
fn count(bytes: i64) {
    // `try_with`: the slots are gone while the thread tears down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    track(bytes);
}

/// Adds `bytes` (negative when freed) to this thread's live total and
/// raises its high-water mark.
fn track(bytes: i64) {
    if let Ok(live) = LIVE_BYTES.try_with(|n| {
        n.set(n.get() + bytes);
        n.get()
    }) {
        let _ = PEAK_LIVE_BYTES.try_with(|p| p.set(p.get().max(live)));
    }
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only const-initialized thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made on this
/// thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// An 86-request batch of mixed contexts: the decode batch size of the
/// trace-priced serving benchmark.
fn batch() -> Vec<u64> {
    (0..86u64).map(|i| (i * 977 + 13) % 3000 + 1).collect()
}

/// Allocations of one warm decode iteration: the memo, the decode model
/// and the thread's scratch were all filled by an earlier call.
fn warm_decode_allocations(mode: DeviceMode, kind: CostModelKind) -> u64 {
    let cfg = NeuPimsConfig::table2();
    let cal = calibrate(&cfg).unwrap();
    let model = LlmConfig::gpt3_7b();
    let device = Device::new(cfg, cal, mode).with_cost_model(kind);
    let seqs = batch();
    let decode = || {
        device
            .decode_iteration(&model, 4, model.num_layers, &seqs)
            .unwrap()
    };
    let warm = decode();
    let (again, n) = allocations(decode);
    assert_eq!(again, warm, "a warm iteration prices as the first did");
    n
}

#[test]
fn warm_trace_priced_decode_iteration_allocates_only_its_outputs() {
    // The per-channel `pim_busy` vector of the result. Algorithm 3's
    // per-channel quota (`SubBatchSides`) lives in the thread's scratch.
    assert_eq!(
        warm_decode_allocations(DeviceMode::neupims(), CostModelKind::TraceDriven),
        1
    );
    // Without sub-batch interleaving the same vector remains.
    let serial = DeviceMode::NeuPims {
        gmlbp: true,
        sbi: SbiPolicy::Off,
    };
    assert_eq!(
        warm_decode_allocations(serial, CostModelKind::TraceDriven),
        1
    );
}

#[test]
fn warm_analytic_decode_iteration_allocates_only_its_outputs() {
    assert_eq!(
        warm_decode_allocations(DeviceMode::neupims(), CostModelKind::Analytic),
        1
    );
    assert_eq!(
        warm_decode_allocations(DeviceMode::NaiveNpuPim, CostModelKind::Analytic),
        1
    );
    assert_eq!(
        warm_decode_allocations(DeviceMode::NpuOnly, CostModelKind::Analytic),
        1
    );
}

#[test]
fn assign_min_load_allocates_its_buffers_once() {
    let seqs = batch();
    let costs: Vec<f64> = seqs.iter().map(|&s| 100.0 + s as f64).collect();
    let assign_min_load = |seqs: &[u64], costs: &[f64]| {
        let mut out = Vec::new();
        MinLoadPacker::new().assign(seqs, costs, 32, &mut out);
        out
    };
    // The LPT order, the channel loads, the heap and the assignment.
    let (_, n) = allocations(|| assign_min_load(&seqs, &costs));
    assert_eq!(n, 4);
    // Within one round of positive costs there is no heap to build.
    let (_, n) = allocations(|| assign_min_load(&seqs[..20], &costs[..20]));
    assert_eq!(n, 3);
    // A packer reused at the same batch and channel counts allocates
    // nothing.
    let mut packer = MinLoadPacker::new();
    let mut out = Vec::new();
    packer.assign(&seqs, &costs, 32, &mut out);
    let (_, n) = allocations(|| packer.assign(&seqs, &costs, 32, &mut out));
    assert_eq!(n, 0);
}

/// Live heap bytes this thread holds.
fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

/// A replica in steady state: 48 requests with 400-token outputs, stepped
/// 100 iterations, past every admission and on-device prefill chunk. Every
/// request is decoding, none completes for 300 more iterations, and the
/// replay memo is warm for every context the batch reaches.
fn steady_replica(scheduler: &str, kind: CostModelKind) -> ServingSim<Device> {
    let cfg = NeuPimsConfig::table2();
    let cal = calibrate(&cfg).unwrap();
    let device = Device::new(cfg, cal, DeviceMode::neupims()).with_cost_model(kind);
    let scfg = ServingConfig {
        max_batch: 64,
        tp: 4,
        layers: 32,
        target_completions: 0,
        slo: None,
    };
    let mut sim = ServingSim::with_scheduler(
        device,
        LlmConfig::gpt3_7b(),
        scfg,
        scheduler_from_name(scheduler, 256).unwrap(),
    );
    sim.warm_cost_model(&[(1, 2048)], 1);
    for id in 0..48u32 {
        sim.submit(id, 64 + id * 13, 400, 0).unwrap();
    }
    run_iterations(&mut sim, 100);
    assert_eq!(sim.waiting_len(), 0, "every request is admitted");
    sim
}

/// Steps `sim` until it has executed `n` more iterations.
fn run_iterations(sim: &mut ServingSim<Device>, n: u64) {
    let mut iterations = 0;
    while iterations < n {
        if sim.step().unwrap() == StepEvent::Iteration {
            iterations += 1;
        }
    }
}

/// Allocations of one steady-state `ServingSim::step`.
fn steady_step_allocations(scheduler: &str, kind: CostModelKind) -> u64 {
    let mut sim = steady_replica(scheduler, kind);
    let (event, n) = allocations(|| sim.step().unwrap());
    assert_eq!(event, StepEvent::Iteration);
    assert_eq!(sim.completed(), 0, "no request completes");
    n
}

#[test]
fn steady_serving_step_allocates_only_its_plan() {
    // One per step: the breakdown's per-channel `pim_busy`. The batch's
    // context lengths and Algorithm 3's per-channel quota live in the
    // plan's and the device's thread-local scratch, and the backend label
    // of the `IterationResult` is borrowed. Admission, token growth, KV
    // accounting and the completion pass allocate nothing.
    assert_eq!(
        steady_step_allocations("interleaved", CostModelKind::TraceDriven),
        1
    );
    assert_eq!(steady_step_allocations("lump", CostModelKind::Analytic), 1);
}

/// Live heap bytes a steady-state replica gains between its 100th and its
/// 300th iteration.
fn steady_live_bytes_growth(scheduler: &str, kind: CostModelKind) -> i64 {
    let mut sim = steady_replica(scheduler, kind);
    let before = live_bytes();
    run_iterations(&mut sim, 200);
    let after = live_bytes();
    assert_eq!(sim.completed(), 0, "no request completes");
    after - before
}

#[test]
fn steady_replica_holds_constant_live_bytes() {
    // Token growth and KV accounting update fixed-size state, and the
    // latest iteration's record is overwritten in place: a longer run
    // holds no more heap.
    assert_eq!(
        steady_live_bytes_growth("interleaved", CostModelKind::TraceDriven),
        0
    );
    assert_eq!(steady_live_bytes_growth("lump", CostModelKind::Analytic), 0);
}

/// Where a fleet gate takes its live-bytes baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Baseline {
    /// Just before the first `submit`, so the engine's and the replicas'
    /// id bookkeeping counts too. The generated trace stays alive, and
    /// is part of the baseline, until the run ends.
    BeforeSubmit,
    /// Just before `run()`, with the generated trace dropped.
    BeforeRun,
}

/// Peak live heap bytes of a fixed fleet run of `requests` requests,
/// measured from `baseline`: 32 GPU-roofline replicas with lump prefill
/// behind JSQ on the calling thread, seeded Poisson arrivals with
/// ShareGPT lengths and outputs capped at 128 (the benchmark's
/// `fleet-jsq-256` per-replica load, so more requests make a longer run,
/// not a busier one).
fn fleet_peak_live_bytes(requests: usize, baseline: Baseline) -> i64 {
    const REPLICAS: usize = 32;
    let hw = NeuPimsConfig::table2();
    let cal = calibrate(&hw).unwrap();
    let model = LlmConfig::gpt3_7b();
    let cfg = ServingConfig {
        max_batch: 64,
        tp: model.parallelism.tp,
        layers: model.num_layers / model.parallelism.pp,
        target_completions: 0,
        slo: Some(SloTargets {
            ttft: 50_000_000,
            tpot: 10_000_000.0,
        }),
    };
    let replicas = (0..REPLICAS)
        .map(|_| {
            let backend = backend_from_name("gpu", &hw, &cal).unwrap();
            ServingSim::new(backend, model.clone(), cfg.clone())
        })
        .collect();
    let mut fleet = FleetSim::new(replicas, policy_from_name("jsq").unwrap())
        .unwrap()
        .with_jobs(1);
    let workload = ScenarioWorkload {
        arrival: ArrivalProcess::Poisson {
            rate: 12.0 * REPLICAS as f64 / 256.0,
        },
        tenants: TenantMix::single(Dataset::ShareGpt),
        requests,
    };
    let trace = workload.generate(&mut StdRng::seed_from_u64(7));
    let mut base = live_bytes();
    PEAK_LIVE_BYTES.with(|p| p.set(base));
    for (i, r) in trace.iter().enumerate() {
        fleet
            .submit(FleetRequest {
                id: u32::try_from(i).unwrap(),
                input_len: r.input_len,
                output_len: r.output_len.min(128),
                arrival: r.arrival,
            })
            .unwrap();
    }
    if baseline == Baseline::BeforeRun {
        drop(trace);
        base = live_bytes();
        PEAK_LIVE_BYTES.with(|p| p.set(base));
    }
    let out = fleet.run().unwrap();
    let peak = PEAK_LIVE_BYTES.with(Cell::get);
    assert_eq!(out.submitted, requests as u64);
    assert_eq!(out.completed + out.dropped, out.submitted);
    peak - base
}

/// [`fleet_peak_live_bytes`] per request, at 4,000 requests.
fn fleet_peak_live_bytes_per_request(baseline: Baseline) -> f64 {
    const REQUESTS: usize = 4_000;
    fleet_peak_live_bytes(REQUESTS, baseline) as f64 / REQUESTS as f64
}

#[test]
fn fleet_run_peaks_below_its_live_bytes_per_request() {
    // At the peak, in the aggregation, the run holds each completed
    // request's latency, TTFT, TPOT, tenant and tokens in its replica
    // (shared with the replica's outcome, not copied) and the fleet-wide
    // sorted copies, filled from them at their exact length, plus per-replica
    // state sized by the live requests, not by the run's length: each
    // event queue holds only future transitions, and the sorted arrival
    // buffer has shrunk to nothing as it drained. No per-request record
    // is kept. Lower the ceiling when a change lowers the peak.
    let per_request = fleet_peak_live_bytes_per_request(Baseline::BeforeRun);
    assert!(
        per_request <= 97.0,
        "the fleet run peaked at {per_request:.1} live bytes per request"
    );
}

#[test]
fn fleet_peaks_below_its_live_bytes_per_request_from_its_first_submit() {
    // The same fleet, with its pending queue and its duplicate-id
    // bookkeeping counted: one run of ids per counter, not one entry per
    // request.
    let per_request = fleet_peak_live_bytes_per_request(Baseline::BeforeSubmit);
    assert!(
        per_request <= 130.0,
        "the fleet peaked at {per_request:.1} live bytes per request from its first submit"
    );
}

#[test]
fn fleet_run_peak_grows_at_most_linearly_with_its_requests() {
    // Ten times the requests over ten times the simulated time: what
    // each completed request leaves grows linearly, and the per-replica
    // state of the live requests stays put, so the peak grows by less
    // than the request count. A site that grows faster than the
    // requests (a per-iteration log, a buffer kept whole past its use)
    // fails here on any machine.
    let small = fleet_peak_live_bytes(4_000, Baseline::BeforeRun);
    let large = fleet_peak_live_bytes(40_000, Baseline::BeforeRun);
    let ratio = large as f64 / small as f64;
    assert!(
        ratio <= 10.5,
        "the fleet run peaked at {large} live bytes over 40,000 requests, \
         {ratio:.2}x its {small} over 4,000"
    );
}
