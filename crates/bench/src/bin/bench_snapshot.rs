//! `bench-snapshot` — JSON perf-trajectory snapshots, measured with
//! `std::time` (the vendored criterion shim reports but does not persist).
//!
//! Four modes:
//!
//! * default — prices a ShareGPT-shaped 256-request batch through four
//!   paths (Algorithm 1
//!   analytic, cold trace-driven replay, warm memoized replay, and two
//!   models pricing concurrently over one shared memo) and writes
//!   `BENCH_cost_models.json`;
//! * `fleet` — times the event-driven `FleetSim::run` at 1 / 16 / 256 /
//!   1000 replicas (1000 requests per replica, so the 1000-replica point
//!   is a ~1M-request fleet) plus the lockstep golden reference on
//!   identical workloads at 256 and 1000 replicas, and writes
//!   `BENCH_fleet.json` with the `lockstep_over_event_256` and
//!   `lockstep_over_event_1000` speedup ratios;
//! * `sharding` — times sharded-deployment pricing (one GPT3-30B decode
//!   beat at
//!   TP 1 / 2 / 4 / 8 over the default PCIe fabric) and writes
//!   `BENCH_sharding.json`, recording each point's tokens/s alongside
//!   its pricing wall-time;
//! * `trace-fleet` — times a 256-replica trace-priced fleet four ways
//!   (analytic twin, cold per-replica memos, one fleet-shared memo with
//!   parallel warm replay, and a fleet restored from a persistent replay
//!   cache) and writes `BENCH_trace_fleet.json` with the
//!   `trace_shared_over_analytic` ratio the shared-memo path is held to
//!   (target: within ~2x of the analytic twin);
//! * `orchestrator` — times the meta-orchestrator (two tenant classes,
//!   admission, capability-aware routing over a warm static commit) at
//!   16 and 256 replicas on the fleet-scale workload against the
//!   load-only `FleetSim` baseline at the same scale, and writes
//!   `BENCH_orchestrator.json` with each scale's
//!   `orchestrated_over_fleet` ratio and the dispatch+routing overhead
//!   per 1k requests.
//!
//! When the output path already holds a snapshot, the new medians are
//! compared against it: any timing regressing beyond 3x fails the run
//! (exit 1) unless `--no-fail` is given (the CI setting — trajectories
//! are advisory there, hard floors belong to local regeneration).
//!
//! ```text
//! cargo run --release -p neupims-bench --bin bench-snapshot [OUT.json] [--no-fail]
//! cargo run --release -p neupims-bench --bin bench-snapshot fleet [OUT.json] [--no-fail]
//! cargo run --release -p neupims-bench --bin bench-snapshot sharding [OUT.json] [--no-fail]
//! cargo run --release -p neupims-bench --bin bench-snapshot trace-fleet [OUT.json] [--no-fail]
//! cargo run --release -p neupims-bench --bin bench-snapshot orchestrator [OUT.json] [--no-fail]
//! ```

use std::time::Instant;

use neupims_bench::{
    fleet_scale_sim, orchestrator_scale_sim, sharded_deployment, sharding_scale_batch,
    trace_fleet_sim, FLEET_SCALE_REQUESTS_PER_REPLICA, TRACE_FLEET_REQUESTS_PER_REPLICA,
};
use neupims_eval::json::Json;
use neupims_kvcache::KvGeometry;
use neupims_pim::calibrate;
use neupims_sched::{
    CostModelKind, MhaCostModel, MhaLatencyEstimator, TraceDrivenCostModel, TraceMemo,
};
use neupims_types::{LlmConfig, NeuPimsConfig};

/// A new median beyond this multiple of the checked-in baseline is a
/// regression (generous: CI machines vary, order-of-magnitude blowups
/// are what the trajectory is meant to catch).
const REGRESSION_FACTOR: f64 = 3.0;

/// The cost-model batch: mixed short/long ShareGPT-shaped tail.
fn batch() -> Vec<u64> {
    (0..256u64).map(|i| 16 + (i * 97) % 1500).collect()
}

/// Median / min / max over per-iteration wall times of `f`, in
/// nanoseconds per iteration.
fn time<F: FnMut() -> f64>(iters: usize, mut f: F) -> (Vec<f64>, f64) {
    let mut samples = Vec::with_capacity(iters);
    let mut sink = 0.0;
    for _ in 0..iters {
        let start = Instant::now();
        sink += f();
        samples.push(start.elapsed().as_nanos() as f64);
    }
    (samples, sink)
}

fn stats(label: &str, mut samples: Vec<f64>) -> (String, Json) {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = samples[samples.len() / 2];
    let fields = vec![
        ("median_ns".to_owned(), Json::Num(median)),
        ("min_ns".to_owned(), Json::Num(samples[0])),
        ("max_ns".to_owned(), Json::Num(samples[samples.len() - 1])),
        ("iters".to_owned(), Json::int(samples.len() as u64)),
    ];
    (label.to_owned(), Json::Obj(fields))
}

fn median_of(j: &Json) -> f64 {
    match j {
        Json::Obj(fields) => fields
            .iter()
            .find(|(k, _)| k == "median_ns")
            .and_then(|(_, v)| match v {
                Json::Num(n) => Some(*n),
                _ => None,
            })
            .unwrap_or(f64::NAN),
        _ => f64::NAN,
    }
}

/// Extracts `"<label>": { ... "median_ns": N ... }` from a previous
/// snapshot by string scan (the eval JSON module is write-only; the
/// files are our own pretty-printed output, so this stays exact).
fn baseline_median(snapshot: &str, label: &str) -> Option<f64> {
    let needle = format!("\"{label}\"");
    let at = snapshot.find(&needle)?;
    let tail = &snapshot[at + needle.len()..];
    let med = tail.find("\"median_ns\":")?;
    let tail = &tail[med + "\"median_ns\":".len()..];
    let end = tail.find([',', '\n', '}'])?;
    tail[..end].trim().parse().ok()
}

/// Compares fresh medians against the checked-in snapshot at `out_path`
/// (if any), printing a delta table. Returns the labels that regressed
/// beyond [`REGRESSION_FACTOR`].
fn compare_with_baseline(out_path: &str, timings: &[(String, Json)]) -> Vec<String> {
    let Ok(old) = std::fs::read_to_string(out_path) else {
        eprintln!("no baseline at {out_path}: seeding a fresh trajectory");
        return Vec::new();
    };
    let mut regressed = Vec::new();
    for (label, fresh) in timings {
        let new_ns = median_of(fresh);
        match baseline_median(&old, label) {
            Some(old_ns) if old_ns > 0.0 => {
                let ratio = new_ns / old_ns;
                eprintln!(
                    "  {label:<16} {:>12.0} ns vs baseline {:>12.0} ns ({ratio:.2}x)",
                    new_ns, old_ns
                );
                if ratio > REGRESSION_FACTOR {
                    regressed.push(label.clone());
                }
            }
            _ => eprintln!("  {label:<16} {new_ns:>12.0} ns (no baseline entry)"),
        }
    }
    regressed
}

/// Writes the document, after grading it against the previous snapshot at
/// the same path. Exits non-zero on regression unless `no_fail`.
fn finish(out_path: &str, timings: &[(String, Json)], doc: Json, no_fail: bool) {
    let regressed = compare_with_baseline(out_path, timings);
    let json = doc.pretty();
    std::fs::write(out_path, &json).expect("write snapshot");
    print!("{json}");
    eprintln!("wrote {out_path}");
    if !regressed.is_empty() {
        eprintln!(
            "perf regression beyond {REGRESSION_FACTOR}x: {}",
            regressed.join(", ")
        );
        if !no_fail {
            std::process::exit(1);
        }
        eprintln!("(--no-fail: reporting only)");
    }
}

fn cost_models_snapshot(out_path: &str, no_fail: bool) {
    let cfg = NeuPimsConfig::table2();
    let cal = calibrate(&cfg).expect("Table 2 calibrates");
    let geo = KvGeometry::for_model(&LlmConfig::gpt3_7b(), &cfg.mem);
    let seqs = batch();

    eprintln!(
        "pricing {} contexts through 3 cost-model paths ...",
        seqs.len()
    );

    let analytic = MhaLatencyEstimator::new(geo, cal.l_tile, cal.l_gwrite);
    let (analytic_samples, mut sink) = time(200, || analytic.estimate_sum(&seqs) as f64);

    // Cold: a fresh memo per estimate — every context-length bucket
    // replays its GEMV command stream through the cycle model.
    let (cold_samples, s) = time(10, || {
        let trace = TraceDrivenCostModel::new(&cfg, geo, true);
        MhaCostModel::estimate_sum(&trace, &seqs)
    });
    sink += s;

    // Warm: one shared memo, pre-populated — the serving-loop steady
    // state where estimates are hash lookups.
    let warm = TraceDrivenCostModel::new(&cfg, geo, true);
    MhaCostModel::estimate_sum(&warm, &seqs);
    let (warm_samples, s) = time(200, || MhaCostModel::estimate_sum(&warm, &seqs));
    sink += s;

    // Warm shared: two models pricing the batch concurrently over one
    // fleet-shared memo — the multi-replica steady state. Read-side
    // contention on the sharded memo is the only cost above `trace_warm`,
    // so the per-pass median is held within ~2x of the private-memo warm
    // path. Each thread prices the batch `PASSES` times so the scoped
    // spawn/join overhead amortizes out of the per-pass figure; samples
    // are normalized to one estimate_sum pass, directly comparable to
    // `trace_warm`.
    const PASSES: usize = 8;
    let shared = TraceMemo::new();
    let left = TraceDrivenCostModel::with_memo(&cfg, geo, true, shared.clone());
    let right = TraceDrivenCostModel::with_memo(&cfg, geo, true, shared);
    MhaCostModel::estimate_sum(&left, &seqs);
    let (raw_samples, s) = time(100, || {
        std::thread::scope(|scope| {
            let a = scope.spawn(|| {
                (0..PASSES)
                    .map(|_| MhaCostModel::estimate_sum(&left, &seqs))
                    .sum::<f64>()
            });
            let b = scope.spawn(|| {
                (0..PASSES)
                    .map(|_| MhaCostModel::estimate_sum(&right, &seqs))
                    .sum::<f64>()
            });
            a.join().expect("left pricer") + b.join().expect("right pricer")
        })
    });
    let warm_shared_samples: Vec<f64> = raw_samples
        .iter()
        .map(|ns| ns / (2 * PASSES) as f64)
        .collect();
    sink += s;

    let timings = vec![
        stats("analytic", analytic_samples),
        stats("trace_cold", cold_samples),
        stats("trace_warm", warm_samples),
        stats("trace_warm_shared", warm_shared_samples),
    ];
    let a = median_of(&timings[0].1);
    let c = median_of(&timings[1].1);
    let w = median_of(&timings[2].1);
    let ws = median_of(&timings[3].1);
    let doc = Json::Obj(vec![
        ("bench".to_owned(), Json::str("cost_models")),
        ("batch".to_owned(), Json::int(seqs.len() as u64)),
        ("model".to_owned(), Json::str("gpt3-7b")),
        ("timings".to_owned(), Json::Obj(timings.clone())),
        (
            "ratios".to_owned(),
            Json::Obj(vec![
                ("warm_over_analytic".to_owned(), Json::Num(w / a)),
                ("cold_over_warm".to_owned(), Json::Num(c / w)),
                ("warm_shared_over_warm".to_owned(), Json::Num(ws / w)),
            ]),
        ),
        // Keeps the sink live so the timed loops can't be optimized out.
        ("checksum".to_owned(), Json::Num(sink)),
    ]);
    finish(out_path, &timings, doc, no_fail);
}

fn fleet_snapshot(out_path: &str, no_fail: bool) {
    const SCALES: [usize; 4] = [1, 16, 256, 1000];
    let per_replica = FLEET_SCALE_REQUESTS_PER_REPLICA;
    let mut timings = Vec::new();
    let mut sink = 0.0;
    for &replicas in &SCALES {
        let requests = replicas * per_replica;
        // The big fleets run once — a 1M-request run is seconds, and the
        // engine is deterministic, so repetition only buys noise floor.
        // Construction (replica building, request submission) happens
        // outside the clock: the snapshot times the engine, not setup.
        let iters = if replicas >= 256 { 1 } else { 5 };
        eprintln!("event-driven: {replicas} replicas x {requests} requests ...");
        let mut fleets: Vec<_> = (0..iters)
            .map(|_| fleet_scale_sim(replicas, requests))
            .collect();
        let (samples, s) = time(iters, || {
            fleets
                .pop()
                .expect("one fleet per iter")
                .run()
                .unwrap()
                .tokens as f64
        });
        sink += s;
        timings.push(stats(&format!("event_{replicas}"), samples));
    }

    // The lockstep golden reference on identical workloads: its
    // O(replicas)-per-dispatch scan (one no-op step plus one snapshot
    // per replica per request) is the cost the event-driven spine
    // removes, so each event/lockstep pair is the speedup claim at that
    // scale. The 256-replica pair reuses the full trajectory workload;
    // the 1000-replica pair trims to 200 requests per replica so the
    // lockstep side stays bounded (the scan dominates either way).
    let lock_requests = 256 * per_replica;
    eprintln!("lockstep: 256 replicas x {lock_requests} requests ...");
    let mut lock_fleet = fleet_scale_sim(256, lock_requests);
    let (lock_samples, s) = time(1, || lock_fleet.run_lockstep().unwrap().tokens as f64);
    sink += s;
    timings.push(stats("lockstep_256", lock_samples));

    let wide_per_replica = 200;
    let wide_requests = 1000 * wide_per_replica;
    eprintln!("speedup pair: 1000 replicas x {wide_requests} requests ...");
    let mut wide_event_fleet = fleet_scale_sim(1000, wide_requests);
    let (wide_event_samples, s) = time(1, || wide_event_fleet.run().unwrap().tokens as f64);
    sink += s;
    timings.push(stats("event_1000_r200", wide_event_samples));
    let mut wide_lock_fleet = fleet_scale_sim(1000, wide_requests);
    let (wide_lock_samples, s) = time(1, || wide_lock_fleet.run_lockstep().unwrap().tokens as f64);
    sink += s;
    timings.push(stats("lockstep_1000_r200", wide_lock_samples));

    let event_256 = median_of(&timings[2].1);
    let lockstep_256 = median_of(&timings[4].1);
    let wide_event = median_of(&timings[5].1);
    let wide_lockstep = median_of(&timings[6].1);
    let doc = Json::Obj(vec![
        ("bench".to_owned(), Json::str("fleet_scale")),
        (
            "requests_per_replica".to_owned(),
            Json::int(per_replica as u64),
        ),
        ("model".to_owned(), Json::str("gpt3-7b")),
        ("policy".to_owned(), Json::str("round-robin")),
        ("timings".to_owned(), Json::Obj(timings.clone())),
        (
            "ratios".to_owned(),
            Json::Obj(vec![
                (
                    "lockstep_over_event_256".to_owned(),
                    Json::Num(lockstep_256 / event_256),
                ),
                (
                    "lockstep_over_event_1000".to_owned(),
                    Json::Num(wide_lockstep / wide_event),
                ),
            ]),
        ),
        // Keeps the sink live so the timed loops can't be optimized out.
        ("checksum".to_owned(), Json::Num(sink)),
    ]);
    eprintln!(
        "lockstep/event speedup: {:.1}x at 256 replicas, {:.1}x at 1000",
        lockstep_256 / event_256,
        wide_lockstep / wide_event
    );
    finish(out_path, &timings, doc, no_fail);
}

fn sharding_snapshot(out_path: &str, no_fail: bool) {
    const TPS: [u32; 4] = [1, 2, 4, 8];
    const ITERS: usize = 50;
    let model = LlmConfig::gpt3_30b();
    let seqs = sharding_scale_batch();

    let mut timings = Vec::new();
    let mut throughputs = Vec::new();
    let mut sink = 0.0;
    for &tp in &TPS {
        eprintln!(
            "pricing tp{tp}: one {}-request GPT3-30B beat ...",
            seqs.len()
        );
        let sharded = sharded_deployment(tp);
        let (samples, s) = time(ITERS, || {
            sharded.cluster_tokens_per_sec(&model, &seqs).unwrap()
        });
        sink += s;
        throughputs.push((format!("tp{tp}"), Json::Num(s / ITERS as f64)));
        timings.push(stats(&format!("tp{tp}"), samples));
    }

    let tp1_tps = match throughputs[0].1 {
        Json::Num(n) => n,
        _ => f64::NAN,
    };
    let tp8_tps = match throughputs[3].1 {
        Json::Num(n) => n,
        _ => f64::NAN,
    };
    let doc = Json::Obj(vec![
        ("bench".to_owned(), Json::str("sharding_scale")),
        ("batch".to_owned(), Json::int(seqs.len() as u64)),
        ("model".to_owned(), Json::str("gpt3-30b")),
        ("interconnect".to_owned(), Json::str("pcie")),
        ("timings".to_owned(), Json::Obj(timings.clone())),
        ("tokens_per_sec".to_owned(), Json::Obj(throughputs)),
        (
            "ratios".to_owned(),
            Json::Obj(vec![(
                "speedup_tp8_over_tp1".to_owned(),
                Json::Num(tp8_tps / tp1_tps),
            )]),
        ),
        // Keeps the sink live so the timed loops can't be optimized out.
        ("checksum".to_owned(), Json::Num(sink)),
    ]);
    eprintln!(
        "PCIe-fabric TP8 speedup over TP1: {:.2}x",
        tp8_tps / tp1_tps
    );
    finish(out_path, &timings, doc, no_fail);
}

fn trace_fleet_snapshot(out_path: &str, no_fail: bool) {
    const REPLICAS: usize = 256;
    let requests = REPLICAS * TRACE_FLEET_REQUESTS_PER_REPLICA;
    let mut timings = Vec::new();
    let mut sink = 0.0;

    // The analytic twin: the same fleet priced by the Algorithm 1 closed
    // form — the reference the shared-memo trace path is held to (~2x).
    // Construction happens outside the clock, as in `fleet_snapshot`.
    eprintln!("analytic: {REPLICAS} replicas x {requests} requests ...");
    let mut fleets: Vec<_> = (0..5)
        .map(|_| trace_fleet_sim(REPLICAS, requests, CostModelKind::Analytic))
        .collect();
    let (samples, s) = time(5, || {
        fleets
            .pop()
            .expect("one fleet per iter")
            .run()
            .unwrap()
            .tokens as f64
    });
    sink += s;
    timings.push(stats("analytic_256", samples));

    // Cold, private memos: every replica replays its reachable context
    // buckets through the cycle model on its own — the pre-sharing cost.
    eprintln!("trace cold (per-replica memos): {REPLICAS} replicas ...");
    let mut fleets: Vec<_> = (0..2)
        .map(|_| trace_fleet_sim(REPLICAS, requests, CostModelKind::TraceDriven))
        .collect();
    let (samples, s) = time(2, || {
        fleets
            .pop()
            .expect("one fleet per iter")
            .run()
            .unwrap()
            .tokens as f64
    });
    sink += s;
    timings.push(stats("trace_cold_256", samples));

    // Shared memo + parallel warm replay: one memo across all replicas,
    // distinct buckets cold-replayed once on scoped threads before the
    // fleet serves. Memo creation, attachment, and warmup all run inside
    // the clock — this is the end-to-end cost a user pays.
    eprintln!("trace shared (one memo, warm replay): {REPLICAS} replicas ...");
    let mut fleets: Vec<_> = (0..5)
        .map(|_| trace_fleet_sim(REPLICAS, requests, CostModelKind::TraceDriven))
        .collect();
    let (samples, s) = time(5, || {
        let mut fleet = fleets
            .pop()
            .expect("one fleet per iter")
            .with_shared_trace_memo(&TraceMemo::new());
        fleet.warm_replay();
        fleet.run().unwrap().tokens as f64
    });
    sink += s;
    timings.push(stats("trace_shared_256", samples));

    // Persistent cache: populate a scratch dir once (untimed), then time
    // fleets whose fresh memos restore every bucket from disk — the
    // rerun/sweep steady state where nothing replays at all.
    let scratch =
        std::env::temp_dir().join(format!("neupims-bench-trace-fleet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    eprintln!(
        "trace disk: populating replay cache at {} ...",
        scratch.display()
    );
    {
        let seed_memo = TraceMemo::with_cache_dir(&scratch).expect("scratch cache dir");
        let mut fleet = trace_fleet_sim(REPLICAS, requests, CostModelKind::TraceDriven)
            .with_shared_trace_memo(&seed_memo);
        fleet.warm_replay();
        sink += fleet.run().unwrap().tokens as f64;
    }
    eprintln!("trace disk (restored memo): {REPLICAS} replicas ...");
    let mut fleets: Vec<_> = (0..5)
        .map(|_| trace_fleet_sim(REPLICAS, requests, CostModelKind::TraceDriven))
        .collect();
    let (samples, s) = time(5, || {
        let memo = TraceMemo::with_cache_dir(&scratch).expect("scratch cache dir");
        let mut fleet = fleets
            .pop()
            .expect("one fleet per iter")
            .with_shared_trace_memo(&memo);
        fleet.warm_replay();
        fleet.run().unwrap().tokens as f64
    });
    sink += s;
    timings.push(stats("trace_disk_256", samples));
    let _ = std::fs::remove_dir_all(&scratch);

    let analytic = median_of(&timings[0].1);
    let cold = median_of(&timings[1].1);
    let shared = median_of(&timings[2].1);
    let disk = median_of(&timings[3].1);
    let doc = Json::Obj(vec![
        ("bench".to_owned(), Json::str("trace_fleet")),
        ("replicas".to_owned(), Json::int(REPLICAS as u64)),
        (
            "requests_per_replica".to_owned(),
            Json::int(TRACE_FLEET_REQUESTS_PER_REPLICA as u64),
        ),
        ("model".to_owned(), Json::str("gpt3-7b")),
        ("policy".to_owned(), Json::str("round-robin")),
        ("timings".to_owned(), Json::Obj(timings.clone())),
        (
            "ratios".to_owned(),
            Json::Obj(vec![
                (
                    "trace_shared_over_analytic".to_owned(),
                    Json::Num(shared / analytic),
                ),
                (
                    "trace_disk_over_analytic".to_owned(),
                    Json::Num(disk / analytic),
                ),
                ("cold_over_shared".to_owned(), Json::Num(cold / shared)),
            ]),
        ),
        // Keeps the sink live so the timed loops can't be optimized out.
        ("checksum".to_owned(), Json::Num(sink)),
    ]);
    eprintln!(
        "trace shared/analytic: {:.2}x, disk/analytic: {:.2}x, cold/shared: {:.1}x",
        shared / analytic,
        disk / analytic,
        cold / shared
    );
    finish(out_path, &timings, doc, no_fail);
}

fn orchestrator_snapshot(out_path: &str, no_fail: bool) {
    const SCALES: [usize; 2] = [16, 256];
    let per_replica = FLEET_SCALE_REQUESTS_PER_REPLICA;
    let mut timings = Vec::new();
    let mut overheads = Vec::new();
    let mut ratios = Vec::new();
    let mut sink = 0.0;
    for &replicas in &SCALES {
        let requests = replicas * per_replica;
        // The 256-replica pair runs once (deterministic engine, seconds
        // of work); construction stays outside the clock, as in the
        // fleet trajectory — the snapshot times dispatch + admission +
        // routing, not fixture setup.
        let iters = if replicas >= 256 { 1 } else { 5 };

        eprintln!("load-only fleet: {replicas} replicas x {requests} requests ...");
        let mut fleets: Vec<_> = (0..iters)
            .map(|_| fleet_scale_sim(replicas, requests))
            .collect();
        let (samples, s) = time(iters, || {
            fleets
                .pop()
                .expect("one fleet per iter")
                .run()
                .unwrap()
                .tokens as f64
        });
        sink += s;
        timings.push(stats(&format!("fleet_{replicas}"), samples));

        eprintln!("orchestrated: {replicas} replicas x {requests} requests ...");
        let mut orchs: Vec<_> = (0..iters)
            .map(|_| orchestrator_scale_sim(replicas, requests))
            .collect();
        let (samples, s) = time(iters, || {
            orchs
                .pop()
                .expect("one orchestrator per iter")
                .run()
                .unwrap()
                .fleet
                .tokens as f64
        });
        sink += s;
        timings.push(stats(&format!("orchestrated_{replicas}"), samples));

        let fleet_ns = median_of(&timings[timings.len() - 2].1);
        let orch_ns = median_of(&timings[timings.len() - 1].1);
        let per_1k = (orch_ns - fleet_ns) / (requests as f64 / 1000.0);
        eprintln!(
            "  {replicas} replicas: orchestrated/fleet {:.2}x, \
             overhead {:.0} ns per 1k requests",
            orch_ns / fleet_ns,
            per_1k
        );
        overheads.push((
            format!("overhead_ns_per_1k_requests_{replicas}"),
            Json::Num(per_1k),
        ));
        ratios.push((
            format!("orchestrated_over_fleet_{replicas}"),
            Json::Num(orch_ns / fleet_ns),
        ));
    }

    let doc = Json::Obj(vec![
        ("bench".to_owned(), Json::str("orchestrator")),
        (
            "requests_per_replica".to_owned(),
            Json::int(per_replica as u64),
        ),
        ("model".to_owned(), Json::str("gpt3-7b")),
        ("router".to_owned(), Json::str("capability")),
        ("autoscale".to_owned(), Json::str("static")),
        ("timings".to_owned(), Json::Obj(timings.clone())),
        ("overheads".to_owned(), Json::Obj(overheads)),
        ("ratios".to_owned(), Json::Obj(ratios)),
        // Keeps the sink live so the timed loops can't be optimized out.
        ("checksum".to_owned(), Json::Num(sink)),
    ]);
    finish(out_path, &timings, doc, no_fail);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let no_fail = args.iter().any(|a| a == "--no-fail");
    let positional: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| !a.starts_with("--"))
        .collect();
    match positional.first().copied() {
        Some("fleet") => {
            let out = positional.get(1).copied().unwrap_or("BENCH_fleet.json");
            fleet_snapshot(out, no_fail);
        }
        Some("sharding") => {
            let out = positional.get(1).copied().unwrap_or("BENCH_sharding.json");
            sharding_snapshot(out, no_fail);
        }
        Some("trace-fleet") => {
            let out = positional
                .get(1)
                .copied()
                .unwrap_or("BENCH_trace_fleet.json");
            trace_fleet_snapshot(out, no_fail);
        }
        Some("orchestrator") => {
            let out = positional
                .get(1)
                .copied()
                .unwrap_or("BENCH_orchestrator.json");
            orchestrator_snapshot(out, no_fail);
        }
        mode => {
            let out = mode.unwrap_or("BENCH_cost_models.json");
            cost_models_snapshot(out, no_fail);
        }
    }
}
