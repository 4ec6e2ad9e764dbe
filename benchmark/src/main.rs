//! The benchmark command.
//!
//! ```text
//! neupims-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it runs the workload untraced, repeatedly, for
//! `--seconds` seconds, and reports the end-to-end metrics. With
//! `--trace 1` it alternates untraced and traced runs of one seed and
//! reports the per-layer metrics, writing the span tree and per-replica
//! counters to `out/trace-<workload>-<seed>.json` in this package's
//! directory. Either way the last line of standard output is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`, and the exit
//! code is 0 only when every correctness check passed.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use neupims_benchmark::metrics::{
    check_conservation, digest, json_edges, json_metrics, json_num, json_str, layer_metrics,
    peak_rss_mb, reference_kernel_seconds, Metric, SimPool, REFERENCE_SECONDS,
};
use neupims_benchmark::trace::{take_edges, Trace};
use neupims_benchmark::workload::{setup, Outcome, Spec, Workload};

/// Seeds pooled into the `sim` metrics of one untraced run. Later
/// repetitions cycle through the same seeds and must reproduce their
/// outcomes bit for bit.
const POOLED_SEEDS: u64 = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!(
                        "unknown workload {value:?} (expected one of: {})",
                        names.join(", ")
                    )
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (expected 0 or 1)")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The workload seed of repetition `k` of a run seeded with `seed`.
fn sub_seed(seed: u64, k: u64) -> u64 {
    splitmix64(seed ^ splitmix64(k))
}

/// One set-up plus timed run.
struct Rep {
    outcome: Outcome,
    setup: Duration,
    timed: Duration,
    steps: Option<u64>,
}

fn rep(spec: &Spec, seed: u64, trace: Option<&std::sync::Arc<Trace>>) -> Result<Rep, String> {
    let t0 = Instant::now();
    let mut system = setup(spec, seed, trace)?;
    let setup_time = t0.elapsed();
    let t1 = Instant::now();
    let (outcome, _) = system.run(trace)?;
    let timed = t1.elapsed();
    check_conservation(&outcome, spec.requests as u64)?;
    Ok(Rep {
        outcome,
        setup: setup_time,
        timed,
        steps: system.steps(),
    })
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// The result of one benchmark invocation.
struct Report {
    attempted: u64,
    metrics: Vec<Metric>,
}

/// A different seed must change the generated workload.
fn check_seed_sensitivity(spec: &Spec, seed: u64) -> Result<(), String> {
    let base = spec.generate(sub_seed(seed, 0));
    for other in [sub_seed(seed, 1), sub_seed(seed.wrapping_add(1), 0)] {
        if spec.generate(other) == base {
            return Err(format!(
                "seeds {} and {other} generate the same workload",
                sub_seed(seed, 0)
            ));
        }
    }
    Ok(())
}

fn untraced(spec: &Spec, seed: u64, budget: Duration) -> Result<Report, String> {
    let start = Instant::now();
    let mut pool = SimPool::default();
    let mut digests = Vec::new();
    let mut raw_rps = Vec::new();
    let mut host_rps = Vec::new();
    let mut setups = Vec::new();
    let mut slowdowns = Vec::new();
    let mut attempted = 0;
    let mut k = 0u64;
    while k < POOLED_SEEDS || start.elapsed() < budget {
        let slowdown = reference_kernel_seconds() / REFERENCE_SECONDS;
        let r = rep(spec, sub_seed(seed, k % POOLED_SEEDS), None)?;
        attempted += spec.requests as u64;
        let d = digest(&r.outcome);
        if k < POOLED_SEEDS {
            pool.add(&r.outcome);
            digests.push(d);
        } else if digests[(k % POOLED_SEEDS) as usize] != d {
            return Err(format!(
                "repetition {k} reproduced seed {} with a different outcome",
                sub_seed(seed, k % POOLED_SEEDS)
            ));
        }
        let rps = spec.requests as f64 / r.timed.as_secs_f64();
        raw_rps.push(rps);
        host_rps.push(rps * slowdown);
        setups.push(r.setup.as_secs_f64() / slowdown);
        slowdowns.push(slowdown);
        k += 1;
    }
    check_seed_sensitivity(spec, seed)?;

    let per_run: Vec<String> = raw_rps.iter().map(|r| format!("{r:.0}")).collect();
    println!("# measured host requests/s per run: {}", per_run.join(" "));
    println!(
        "# measured host requests/s {} at host slowdown {} (reference kernel time / {REFERENCE_SECONDS} s)",
        json_num(median(raw_rps)),
        json_num(median(slowdowns))
    );
    let (samples, beyond) = pool.ttft_samples();
    println!(
        "# {} seed {seed}: {k} runs of {} requests ({POOLED_SEEDS} seeds pooled, later runs repeat them)",
        spec.workload.name(),
        spec.requests
    );
    println!("# TTFT samples: {samples} ({beyond} beyond p99)");
    println!(
        "# failed_share (dropped + shed) / submitted: {}",
        json_num(pool.failed() as f64 / pool.submitted().max(1) as f64)
    );
    let mut metrics = vec![
        Metric {
            name: "host_requests_per_s",
            value: median(host_rps),
            unit: "1/s",
        },
        Metric {
            name: "setup_s",
            value: median(setups),
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb()?,
            unit: "MB",
        },
    ];
    metrics.extend(pool.metrics());
    for m in &metrics {
        let side = if m.name.starts_with("sim_") || m.name == "completed_share" {
            "sim"
        } else {
            "host"
        };
        println!(
            "{side:<4}  {:<22} {:>24} {}",
            m.name,
            json_num(m.value),
            m.unit
        );
    }
    Ok(Report { attempted, metrics })
}

fn traced(spec: &Spec, seed: u64, budget: Duration) -> Result<Report, String> {
    let start = Instant::now();
    let run_seed = sub_seed(seed, 0);
    let mut per_pair: Vec<Vec<Metric>> = Vec::new();
    let mut attempted = 0;
    let mut last = None;
    while per_pair.is_empty() || start.elapsed() < budget {
        let plain = rep(spec, run_seed, None)?;
        let trace = Trace::new();
        take_edges();
        let traced = rep(spec, run_seed, Some(&trace))?;
        let edges = take_edges();
        attempted += 2 * spec.requests as u64;
        if digest(&plain.outcome) != digest(&traced.outcome) {
            return Err("the traced run's outcome differs from the untraced run's".into());
        }
        let mut metrics = layer_metrics(&trace, &traced.outcome, traced.steps);
        metrics.push(Metric {
            name: "trace.overhead",
            value: traced.timed.as_secs_f64() / plain.timed.as_secs_f64(),
            unit: "ratio",
        });
        per_pair.push(metrics);
        last = Some((trace, edges));
    }
    // Counts repeat exactly across pairs; times take the median.
    let metrics: Vec<Metric> = per_pair[0]
        .iter()
        .enumerate()
        .map(|(i, m)| Metric {
            value: median(per_pair.iter().map(|p| p[i].value).collect()),
            ..m.clone()
        })
        .collect();
    check_seed_sensitivity(spec, seed)?;
    let (trace, edges) = last.expect("at least one traced run");
    write_trace_file(spec, seed, &trace, &edges, &metrics)?;
    println!(
        "# {} seed {seed} (run seed {run_seed}): {} untraced/traced pairs",
        spec.workload.name(),
        per_pair.len()
    );
    for e in &edges {
        println!(
            "span  {:<24} <- {:<20} calls {:>10}  total {:>14} ns  self {:>14} ns",
            e.name,
            if e.parent.is_empty() { "-" } else { e.parent },
            e.calls,
            e.total_ns,
            e.self_ns
        );
    }
    for m in &metrics {
        println!("layer {:<30} {:>24} {}", m.name, json_num(m.value), m.unit);
    }
    Ok(Report { attempted, metrics })
}

fn write_trace_file(
    spec: &Spec,
    seed: u64,
    trace: &Trace,
    edges: &[neupims_benchmark::trace::Edge],
    metrics: &[Metric],
) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let replicas: Vec<String> = trace
        .replicas()
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let stat = |s: &neupims_benchmark::trace::SpanStat| {
                format!("[{}, {}, {}]", s.calls(), s.total_ns(), s.self_ns())
            };
            format!(
                "{{\"replica\": {i}, \"decode\": {}, \"prefill\": {}, \"estimate\": {}, \"plan\": {}, \"admission\": {}, \"select\": {}}}",
                stat(&c.decode),
                stat(&c.prefill),
                stat(&c.estimate),
                stat(&c.plan),
                stat(&c.admission),
                stat(&c.select)
            )
        })
        .collect();
    let doc = format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"requests\": {}, \"spans\": {}, \"replica_counter_fields\": [\"calls\", \"total_ns\", \"self_ns\"], \"replicas\": [{}], \"layers\": {}}}\n",
        json_str(spec.workload.name()),
        spec.requests,
        json_edges(edges),
        replicas.join(", "),
        json_metrics(metrics)
    );
    let path = dir.join(format!("trace-{}-{seed}.json", spec.workload.name()));
    std::fs::write(&path, doc).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = args.workload.spec();
    let budget = Duration::from_secs(args.seconds);
    let result = if args.trace {
        traced(&spec, args.seed, budget)
    } else {
        untraced(&spec, args.seed, budget)
    };
    match result {
        Ok(r) => {
            println!(
                "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {}}}",
                r.attempted,
                json_metrics(&r.metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            println!(
                "{{\"correct\": false, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
                spec.requests, spec.requests
            );
            ExitCode::FAILURE
        }
    }
}
