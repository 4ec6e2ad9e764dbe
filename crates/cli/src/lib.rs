//! `neupims` — experiment driver reproducing every table and figure of the
//! NeuPIMs paper (ASPLOS'24), plus backend-generic sweeps and serving.
//!
//! ```text
//! neupims <command> [suite] [--samples N] [--quick] [--backend NAME]
//!                   [--model NAME] [--dataset NAME] [--batch N]
//!                   [--requests N] [--max-batch N]
//!                   [--replicas N] [--policy NAME] [--rate R] [--seed N]
//!                   [--jobs N]
//!                   [--scheduler NAME] [--chunk-tokens N]
//!                   [--preemption NAME] [--swap-gbps GB]
//!                   [--cost-model NAME] [--tolerance F]
//!                   [--memo-cache DIR]
//!                   [--slo-ttft-ms MS] [--slo-tpot-ms MS]
//!                   [--tp N] [--pp N] [--interconnect NAME]
//!                   [--link-gbps GB]
//!                   [--list] [--reports-dir DIR]
//!
//! commands:
//!   sweep       throughput sweep of one backend across batch sizes
//!   serve       one-replica `fleet` (one backend, its own default seed)
//!   fleet       SLO-aware multi-replica fleet serving behind a dispatcher
//!               (serve and fleet print the metric map eval scores)
//!   eval        run a golden-expectation suite (eval <suite>, eval --list)
//!   calibrate   print the cycle-model calibration constants
//!   drift       analytic-vs-trace MHA cost model calibration drift
//!               (exits non-zero when any point exceeds --tolerance)
//!   fig4        roofline / arithmetic-intensity points (Figure 4)
//!   fig5        GPU utilization for four LLMs (Figure 5)
//!   fig6        naive NPU+PIM per-stage utilization (Figure 6; = eval fig6)
//!   fig12       throughput of the 4 systems (Figure 12; = eval fig12)
//!   fig13       ablation: DRB / GMLBP / SBI (Figure 13; = eval fig13)
//!   fig14       (TP, PP) parallelism scaling (Figure 14)
//!   fig15       speedup over TransPIM (Figure 15; = eval fig15)
//!   table4      resource utilization (Table 4; = eval table4)
//!   table5      power and energy (Table 5)
//!   area        dual-row-buffer area overhead (Section 8.2)
//!   all         every figure/table above, in order
//!
//! backends (for --backend): gpu, npu-only, naive, neupims, transpim,
//!   neupims-drb, neupims-drb-gmlbp, neupims-drb-gmlbp-sbi
//!   (fleet accepts a comma-separated list, cycled over the replicas)
//! models (for --model): gpt3-7b, gpt3-13b, gpt3-30b, gpt3-175b
//! datasets (for --dataset): sharegpt, alpaca
//! policies (for --policy): round-robin, jsq, kv-aware
//! schedulers (for --scheduler): lump, chunked, interleaved
//!   (fleet accepts a comma-separated list, cycled over the replicas);
//!   --chunk-tokens sets the per-iteration prefill budget of the chunked
//!   schedulers (default 256)
//! preemption policies (for --preemption, on serve/fleet): drop (defer or
//!   shed on KV pressure, default), recompute (evict newest admissions,
//!   re-pay prefill at restore), swap (evict coldest, restore over a
//!   --swap-gbps GB/s PCIe-style link, default 32)
//! cost models (for --cost-model, on sweep/serve/fleet): analytic (the
//!   Algorithm 1 closed form, default) or trace (replay the real GEMV
//!   command streams through the cycle-level DRAM model, memoized per
//!   context-length bucket); `drift --tolerance F` reports where the two
//!   disagree by more than F (relative, default 0.10)
//! --memo-cache DIR (on serve/fleet/eval, with --cost-model trace)
//!   persists the replay memo to DIR: a rerun over the same hardware
//!   config loads every priced bucket from disk instead of replaying it
//!   (corrupt or version-mismatched entries are ignored with a warning);
//!   `fleet` additionally shares one memo across all replicas and
//!   pre-replays cold buckets in parallel before serving starts
//! multi-chip sharding (on sweep/serve/fleet): --tp N splits attention
//! heads and FFN columns across N chips, --pp N pipelines the decoder
//! stack over N stages; the per-layer collectives and stage hops are
//! priced by --interconnect (pcie | unified | noc | ideal, default
//! pcie) whose per-link bandwidth --link-gbps GB overrides. With
//! neither --tp nor --pp the backend runs unsharded, exactly as before;
//! fleet gives every replica its own sharded chip group.
//! --rate is in requests per million cycles (= kilo-requests/s at 1 GHz)
//! and drives both `serve` and `fleet` arrivals; --slo-ttft-ms /
//! --slo-tpot-ms set the latency targets their `slo_attainment` and
//! `goodput` metrics are measured against.
//! --jobs caps how many replica streams `fleet` and `eval` advance in
//! parallel between dispatch points (default: available parallelism).
//! Replicas share no state between dispatch barriers, so --jobs only
//! changes wall-clock: the same --seed yields bit-identical results for
//! any N (pinned by tests).
//! --seed pins the workload RNG of `serve`, `fleet`, and `eval`: two runs
//! with the same seed (and flags) submit identical requests. Without it,
//! serve/fleet fall back to fixed default seeds (so changing --requests
//! never reshuffles the shared workload prefix) and eval suites use
//! their spec'd per-scenario seeds. Its default seed is all that tells
//! `serve` from `fleet --replicas 1`.
//! Any of --tenants/--autoscale/--router/--min-replicas routes `fleet`
//! through the capability-aware meta-orchestrator (docs/ORCHESTRATOR.md):
//! --tenants takes name:weight:priority[:ttft_ms:tpot_ms] entries
//! (priority >= 100 bypasses admission control), --autoscale picks the
//! replica scaler (static | reactive | predictive; scalers pay each
//! spin-up's warmup cycles and park idle replicas down to
//! --min-replicas), and --router picks dispatch scoring (load |
//! round-robin | capability). The metric map adds `tenant_<name>_*`
//! keys per tenant and the `goodput_per_cost` bottom line (tokens from
//! SLO-attaining requests per replica-Mcycle of committed capacity).
//! eval suites: smoke (CI default), fig6, fig12, fig13, fig15, table3,
//! table4, pressure, scaling, orchestrator — or a path to a .toml spec
//! (see docs/EVAL.md); reports are stored under --reports-dir (default
//! `reports/`) keyed by suite + git revision, and the command exits
//! non-zero when any fail-severity golden check is violated.
//! ```

use std::process::ExitCode;

/// Default workload seed of `serve` when `--seed` is absent. A fixed
/// constant on purpose: the default workload must be a function of the
/// seed alone, so `--requests 100` submits a prefix of `--requests 200`
/// (the old `seed ^ requests` derivation reshuffled everything whenever
/// the count changed; pinned by `tests/regression_seed_plumbing.rs`).
pub const DEFAULT_SERVE_SEED: u64 = 0x5EED;

/// Default workload seed of `fleet` when `--seed` is absent (see
/// [`DEFAULT_SERVE_SEED`] for why this must not depend on `--requests`).
pub const DEFAULT_FLEET_SEED: u64 = 0xF1EE7;

use std::path::PathBuf;

use neupims_core::experiments::{
    fig14_parallelism, fig4_roofline, fig5_gpu_util, table5_power, ExperimentContext,
};
use neupims_core::fleet::{FleetRequest, POLICY_NAMES};
use neupims_core::interconnect::{interconnect_from_name, INTERCONNECT_NAMES};
use neupims_core::orchestrator::{TenantClass, AUTOSCALE_NAMES, ROUTER_NAMES};
use neupims_core::preempt::PREEMPTION_NAMES;
use neupims_core::scheduler::SCHEDULER_NAMES;
use neupims_core::serving::SloTargets;
use neupims_core::system::{System, SystemSpec};
use neupims_core::BACKEND_NAMES;
use neupims_eval::spec::{dataset_from_name, model_from_name};
use neupims_kvcache::KvGeometry;
use neupims_sched::{
    calibration_drift, CostModelKind, MhaLatencyEstimator, TraceDrivenCostModel, COST_MODEL_NAMES,
    DEFAULT_DRIFT_TOLERANCE,
};
use neupims_types::{request_id, Phase};
use neupims_workload::{arrival_stream, Dataset};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

struct Options {
    samples: usize,
    quick: bool,
    dataset: Dataset,
    batch: Option<usize>,
    requests: usize,
    /// `--replicas`, when given: `fleet` defaults to 4, `serve` runs 1.
    replicas: Option<usize>,
    /// Every other system flag (`--backend`, `--tp`, ...) lands here: the
    /// same spec an eval suite's `[[scenario]]` keys parse into.
    system: SystemSpec,
    cost_model_set: bool,
    memo_cache: Option<PathBuf>,
    tolerance: f64,
    rate: f64,
    seed: Option<u64>,
    jobs: Option<usize>,
    tenants: Option<String>,
    suite: Option<String>,
    list: bool,
    reports_dir: String,
}

/// Entry point of the `neupims` CLI: parses `std::env::args` and runs the
/// requested command (also re-exported as the workspace root's `neupims`
/// bin, so `cargo run --release -- <command>` works from the repo root).
pub fn run_cli() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command = None;
    let mut opts = Options {
        samples: 10,
        quick: false,
        dataset: Dataset::ShareGpt,
        batch: None,
        requests: 64,
        replicas: None,
        system: SystemSpec {
            max_batch: 64,
            ..SystemSpec::default()
        },
        cost_model_set: false,
        memo_cache: None,
        tolerance: DEFAULT_DRIFT_TOLERANCE,
        rate: 3.0,
        seed: None,
        jobs: None,
        tenants: None,
        suite: None,
        list: false,
        reports_dir: "reports".to_owned(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--samples" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => opts.samples = n,
                _ => {
                    eprintln!("--samples requires a positive number");
                    return ExitCode::FAILURE;
                }
            },
            "--batch" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => opts.batch = Some(n),
                _ => {
                    eprintln!("--batch requires a positive number");
                    return ExitCode::FAILURE;
                }
            },
            "--requests" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => opts.requests = n,
                None => {
                    eprintln!("--requests requires a number");
                    return ExitCode::FAILURE;
                }
            },
            "--max-batch" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => opts.system.max_batch = n,
                _ => {
                    eprintln!("--max-batch requires a positive number");
                    return ExitCode::FAILURE;
                }
            },
            "--replicas" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => opts.replicas = Some(n),
                _ => {
                    eprintln!("--replicas requires a positive number");
                    return ExitCode::FAILURE;
                }
            },
            "--policy" => match it.next() {
                Some(name) => opts.system.dispatch = name.clone(),
                None => {
                    eprintln!("--policy requires a name ({})", POLICY_NAMES.join("|"));
                    return ExitCode::FAILURE;
                }
            },
            "--scheduler" => match it.next() {
                Some(name) => opts.system.scheduler = name.clone(),
                None => {
                    eprintln!(
                        "--scheduler requires a name ({})",
                        SCHEDULER_NAMES.join("|")
                    );
                    return ExitCode::FAILURE;
                }
            },
            "--chunk-tokens" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => opts.system.chunk_tokens = n,
                _ => {
                    eprintln!("--chunk-tokens requires a positive number of tokens");
                    return ExitCode::FAILURE;
                }
            },
            "--preemption" => match it.next() {
                Some(name) => opts.system.preemption = name.clone(),
                None => {
                    eprintln!(
                        "--preemption requires a name ({})",
                        PREEMPTION_NAMES.join("|")
                    );
                    return ExitCode::FAILURE;
                }
            },
            "--swap-gbps" => match it.next().and_then(|v| v.parse().ok()) {
                Some(g) if g > 0.0 => opts.system.swap_gbps = g,
                _ => {
                    eprintln!("--swap-gbps requires a positive bandwidth (GB/s)");
                    return ExitCode::FAILURE;
                }
            },
            "--cost-model" => match it.next().and_then(|v| CostModelKind::from_name(v)) {
                Some(kind) => {
                    opts.system.cost_model = kind;
                    opts.cost_model_set = true;
                }
                None => {
                    eprintln!(
                        "--cost-model requires a name ({})",
                        COST_MODEL_NAMES.join("|")
                    );
                    return ExitCode::FAILURE;
                }
            },
            "--memo-cache" => match it.next() {
                Some(dir) => opts.memo_cache = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--memo-cache requires a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--tolerance" => match it.next().and_then(|v| v.parse().ok()) {
                Some(t) if t >= 0.0 => opts.tolerance = t,
                _ => {
                    eprintln!("--tolerance requires a non-negative relative error");
                    return ExitCode::FAILURE;
                }
            },
            "--rate" => match it.next().and_then(|v| v.parse().ok()) {
                Some(r) if r > 0.0 => opts.rate = r,
                _ => {
                    eprintln!("--rate requires a positive number (requests per Mcycle)");
                    return ExitCode::FAILURE;
                }
            },
            "--slo-ttft-ms" => match it.next().and_then(|v| v.parse().ok()) {
                Some(ms) if ms > 0.0 => opts.system.slo_ttft_ms = ms,
                _ => {
                    eprintln!("--slo-ttft-ms requires a positive number (milliseconds)");
                    return ExitCode::FAILURE;
                }
            },
            "--slo-tpot-ms" => match it.next().and_then(|v| v.parse().ok()) {
                Some(ms) if ms > 0.0 => opts.system.slo_tpot_ms = ms,
                _ => {
                    eprintln!("--slo-tpot-ms requires a positive number (milliseconds)");
                    return ExitCode::FAILURE;
                }
            },
            "--backend" => match it.next() {
                Some(name) => opts.system.backend = name.clone(),
                None => {
                    eprintln!("--backend requires a name ({})", BACKEND_NAMES.join("|"));
                    return ExitCode::FAILURE;
                }
            },
            "--model" => match it.next().and_then(|v| model_from_name(v).ok()) {
                Some(m) => opts.system.model = m,
                None => {
                    eprintln!("--model requires one of: gpt3-7b, gpt3-13b, gpt3-30b, gpt3-175b");
                    return ExitCode::FAILURE;
                }
            },
            "--dataset" => match it.next().and_then(|v| dataset_from_name(v).ok()) {
                Some(d) => opts.dataset = d,
                None => {
                    eprintln!("--dataset requires one of: sharegpt, alpaca");
                    return ExitCode::FAILURE;
                }
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(s) => opts.seed = Some(s),
                None => {
                    eprintln!("--seed requires a number");
                    return ExitCode::FAILURE;
                }
            },
            "--jobs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => opts.jobs = Some(n),
                _ => {
                    eprintln!("--jobs requires a positive number of worker threads");
                    return ExitCode::FAILURE;
                }
            },
            "--tenants" => match it.next() {
                Some(spec) => opts.tenants = Some(spec.clone()),
                None => {
                    eprintln!(
                        "--tenants requires a spec: name:weight:priority[:ttft_ms:tpot_ms],..."
                    );
                    return ExitCode::FAILURE;
                }
            },
            "--autoscale" => match it.next() {
                Some(name) => opts.system.autoscale = Some(name.clone()),
                None => {
                    eprintln!(
                        "--autoscale requires a name ({})",
                        AUTOSCALE_NAMES.join("|")
                    );
                    return ExitCode::FAILURE;
                }
            },
            "--router" => match it.next() {
                Some(name) => opts.system.router = Some(name.clone()),
                None => {
                    eprintln!("--router requires a name ({})", ROUTER_NAMES.join("|"));
                    return ExitCode::FAILURE;
                }
            },
            "--min-replicas" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => opts.system.min_replicas = Some(n),
                _ => {
                    eprintln!("--min-replicas requires a positive number");
                    return ExitCode::FAILURE;
                }
            },
            "--tp" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => opts.system.tp = Some(n),
                _ => {
                    eprintln!("--tp requires a positive tensor-parallel degree");
                    return ExitCode::FAILURE;
                }
            },
            "--pp" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => opts.system.pp = Some(n),
                _ => {
                    eprintln!("--pp requires a positive pipeline-parallel degree");
                    return ExitCode::FAILURE;
                }
            },
            "--interconnect" => match it.next() {
                Some(name) => opts.system.interconnect = name.clone(),
                None => {
                    eprintln!(
                        "--interconnect requires a name ({})",
                        INTERCONNECT_NAMES.join("|")
                    );
                    return ExitCode::FAILURE;
                }
            },
            "--link-gbps" => match it.next().and_then(|v| v.parse().ok()) {
                Some(g) if g > 0.0 => opts.system.link_gbps = Some(g),
                _ => {
                    eprintln!("--link-gbps requires a positive bandwidth (GB/s)");
                    return ExitCode::FAILURE;
                }
            },
            "--reports-dir" => match it.next() {
                Some(dir) => opts.reports_dir = dir.clone(),
                None => {
                    eprintln!("--reports-dir requires a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--list" => opts.list = true,
            "--quick" => opts.quick = true,
            cmd if command.is_none() => command = Some(cmd.to_owned()),
            // A second positional argument names the eval suite.
            suite if opts.suite.is_none() && !suite.starts_with('-') => {
                opts.suite = Some(suite.to_owned());
            }
            other => {
                eprintln!("unexpected argument {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    if opts.quick {
        opts.samples = opts.samples.min(3);
    }

    let command = command.unwrap_or_else(|| "all".to_owned());
    match run(&command, &opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(command: &str, opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    if command == "fig4" {
        return cmd_fig4();
    }
    if command == "fig5" {
        return cmd_fig5();
    }
    if command == "area" {
        return cmd_area();
    }
    // The eval runner calibrates per scenario (suites may override the
    // memory system), so eval and the artifacts that are suites of the
    // same name skip the shared context below.
    if command == "eval" {
        return cmd_eval(opts, opts.suite.as_deref().unwrap_or("smoke"));
    }
    if matches!(command, "fig6" | "fig12" | "fig13" | "fig15" | "table4") {
        return cmd_eval(opts, command);
    }

    // Every remaining command needs the calibrated context.
    eprintln!("calibrating PIM constants from the cycle model ...");
    let ctx = ExperimentContext::table2()?.with_samples(opts.samples);

    match command {
        "sweep" => cmd_sweep(&ctx, opts),
        "serve" | "fleet" => cmd_fleet(&ctx, opts, command),
        "calibrate" => cmd_calibrate(&ctx),
        "drift" => cmd_drift(&ctx, opts),
        "fig14" => cmd_fig14(&ctx),
        "table5" => cmd_table5(&ctx),
        "all" => {
            cmd_fig4()?;
            cmd_fig5()?;
            cmd_calibrate(&ctx)?;
            cmd_eval(opts, "fig6")?;
            cmd_eval(opts, "fig12")?;
            cmd_eval(opts, "fig13")?;
            cmd_fig14(&ctx)?;
            cmd_eval(opts, "fig15")?;
            cmd_eval(opts, "table4")?;
            cmd_table5(&ctx)?;
            cmd_area()
        }
        other => {
            eprintln!("unknown command {other:?} (try: all, fig12, table4, ...)");
            Err("unknown command".into())
        }
    }
}

fn cmd_sweep(ctx: &ExperimentContext, opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    let system = &opts.system;
    let batches: Vec<usize> = match opts.batch {
        Some(b) => vec![b],
        None if opts.quick => vec![64, 256],
        None => vec![64, 128, 256, 384, 512],
    };
    if system.sharding_requested() {
        // Reject a bad fabric name or bandwidth before any table output.
        interconnect_from_name(&system.interconnect, system.link_gbps)?;
    }
    println!(
        "\n## Sweep — {} / {} / {} ({} cost model; tokens/s, mean of {} warm batches)\n",
        system.backend,
        system.model.name,
        opts.dataset.name(),
        system.cost_model,
        ctx.samples
    );
    if system.sharding_requested() {
        println!(
            "sharded over tp{} x pp{} chips on the {} fabric\n",
            system.tp.unwrap_or(1),
            system.pp.unwrap_or(1),
            system.interconnect
        );
    }
    println!("| batch | tokens/s |");
    println!("|---:|---:|");
    for &batch in &batches {
        let sim = system
            .simulation(ctx, None)?
            .dataset(opts.dataset)
            .batch(batch)
            .build()?;
        println!("| {} | {:.0} |", batch, sim.throughput()?);
    }
    Ok(())
}

/// The seeded request stream of `serve` and `fleet`: `--requests` arrivals
/// at `--rate`, each with a dataset input length and an output length
/// capped at 128 tokens and, when `tenant_weights` is given, a weighted
/// tenant draw (index into the weights) from the same RNG.
fn draw_requests(
    opts: &Options,
    seed: u64,
    tenant_weights: Option<&[f64]>,
) -> Result<Vec<(FleetRequest, usize)>, Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let arrivals = arrival_stream(&mut rng, opts.rate, opts.requests);
    let total_weight: f64 = tenant_weights.map_or(0.0, |w| w.iter().sum());
    let mut requests = Vec::with_capacity(arrivals.len());
    for (i, &at) in arrivals.iter().enumerate() {
        let req = FleetRequest {
            id: request_id(i)?,
            input_len: opts.dataset.sample_input(&mut rng),
            output_len: opts.dataset.sample_output(&mut rng).min(128),
            arrival: at,
        };
        let mut tenant = 0;
        if let Some(weights) = tenant_weights {
            let mut pick = rng.random::<f64>() * total_weight;
            for (k, w) in weights.iter().enumerate() {
                tenant = k;
                pick -= w;
                if pick <= 0.0 {
                    break;
                }
            }
        }
        requests.push((req, tenant));
    }
    Ok(requests)
}

/// `fleet`: the replicas of `--replicas` (default 4), with comma-separated
/// `--backend`/`--scheduler` lists cycled over them, behind the
/// `--policy` dispatcher — or, with any of `--tenants`, `--autoscale`,
/// `--router`, `--min-replicas`, as the slot table of the meta-orchestrator.
/// `serve` is `fleet --replicas 1` under its own default seed. Both print
/// the metric map an eval serving scenario is scored on.
fn cmd_fleet(
    ctx: &ExperimentContext,
    opts: &Options,
    command: &str,
) -> Result<(), Box<dyn std::error::Error>> {
    let mut system = opts.system.clone();
    let default_seed = if command == "serve" {
        // `serve` builds one replica: a name list (which `fleet` cycles
        // over its replicas) or another replica count is an error, not a
        // silent first pick.
        for (flag, names) in [
            ("--backend", &system.backend),
            ("--scheduler", &system.scheduler),
        ] {
            if names.contains(',') {
                return Err(format!("serve takes one {flag} name, not the list {names:?}").into());
            }
        }
        if let Some(n) = opts.replicas.filter(|&n| n != 1) {
            return Err(format!("serve runs one replica, not --replicas {n} (use fleet)").into());
        }
        system.replicas = 1;
        DEFAULT_SERVE_SEED
    } else {
        system.replicas = opts.replicas.unwrap_or(4);
        DEFAULT_FLEET_SEED
    };
    let mut weights = vec![1.0];
    if let Some(spec) = &opts.tenants {
        (system.tenants, weights) = parse_tenants(spec, &system)?;
        // `--tenants` alone asks for the orchestrator at its static default.
        system.autoscale.get_or_insert_with(|| "static".to_owned());
    }
    // Under trace pricing the whole fleet shares one replay memo (disk-
    // backed with --memo-cache), so each context bucket simulates once.
    let memo = system.trace_memo(opts.memo_cache.as_deref())?;
    let mut built = system.build(ctx, memo.as_ref(), opts.jobs)?;
    let seed = opts.seed.unwrap_or(default_seed);
    let title = run_title(command, opts, &system, &built, seed);

    // Under the orchestrator the tenant of each request is a weighted draw.
    let orchestrated = matches!(built, System::Orchestrator(_));
    let tenant_weights = orchestrated.then_some(weights.as_slice());
    for (req, tenant) in draw_requests(opts, seed, tenant_weights)? {
        built.submit(req, tenant)?;
    }
    let metrics = neupims_eval::run_system(built, memo.is_some())?;
    print!("\n{}", neupims_eval::render_metrics(&title, &metrics));
    Ok(())
}

/// The header line of a `serve`/`fleet` report: the workload, the seed
/// it was drawn with and the system that served it.
fn run_title(
    command: &str,
    opts: &Options,
    system: &SystemSpec,
    built: &System,
    seed: u64,
) -> String {
    let routing = match built {
        System::Fleet(fleet) => format!("{} dispatch", fleet.policy_name()),
        System::Orchestrator(orch) => format!(
            "{} router, {} autoscale, {} tenants",
            orch.route_name(),
            orch.autoscale_name(),
            orch.tenants().len()
        ),
    };
    let sharding = if system.sharding_requested() {
        format!(
            ", tp{} x pp{} over {}",
            system.tp.unwrap_or(1),
            system.pp.unwrap_or(1),
            system.interconnect
        )
    } else {
        String::new()
    };
    format!(
        "{command} — {} requests ({}, seed {seed}) at {} req/Mcycle over {} x {} serving {} \
         ({} scheduler, {} preemption, {} cost model{sharding}; {routing}; \
         SLO TTFT {} ms, TPOT {} ms)",
        opts.requests,
        opts.dataset.name(),
        opts.rate,
        system.replicas,
        system.backend,
        system.model.name,
        system.scheduler,
        system.preemption,
        system.cost_model,
        system.slo_ttft_ms,
        system.slo_tpot_ms,
    )
}

/// Parses a `--tenants` spec: `name:weight:priority[:ttft_ms:tpot_ms]`
/// entries separated by commas. TTFT/TPOT default to the system's
/// `--slo-ttft-ms`/`--slo-tpot-ms` targets; weights are normalized to
/// shares.
fn parse_tenants(
    spec: &str,
    system: &SystemSpec,
) -> Result<(Vec<TenantClass>, Vec<f64>), Box<dyn std::error::Error>> {
    let mut tenants = Vec::new();
    let mut weights = Vec::new();
    for entry in spec.split(',') {
        let parts: Vec<&str> = entry.trim().split(':').collect();
        if parts.len() < 3 || parts.len() > 5 {
            return Err(format!(
                "bad --tenants entry {entry:?} (expected name:weight:priority[:ttft_ms:tpot_ms])"
            )
            .into());
        }
        let name = parts[0];
        let weight: f64 = parts[1]
            .parse()
            .map_err(|_| format!("bad weight in --tenants entry {entry:?}"))?;
        let weight = neupims_eval::positive_finite("weight", weight)
            .map_err(|e| format!("--tenants entry {entry:?}: {}", e.0))?;
        let priority: u8 = parts[2]
            .parse()
            .map_err(|_| format!("bad priority in --tenants entry {entry:?}"))?;
        let ms = |i: usize, what: &str, default: f64| -> Result<f64, String> {
            parts.get(i).map_or(Ok(default), |v| {
                let ms = v
                    .parse()
                    .map_err(|_| format!("bad {what} in --tenants entry {entry:?}"))?;
                neupims_eval::positive_finite(what, ms)
                    .map_err(|e| format!("--tenants entry {entry:?}: {}", e.0))
            })
        };
        let slo = SloTargets::from_ms(
            ms(3, "ttft_ms", system.slo_ttft_ms)?,
            ms(4, "tpot_ms", system.slo_tpot_ms)?,
        );
        tenants.push(TenantClass::new(name, slo, priority, 0.0));
        weights.push(weight);
    }
    let total: f64 = weights.iter().sum();
    for (t, w) in tenants.iter_mut().zip(&weights) {
        t.share = w / total;
    }
    Ok((tenants, weights))
}

fn cmd_drift(ctx: &ExperimentContext, opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    let tp = opts.system.model.parallelism.tp;
    let geo = KvGeometry::with_tp(&opts.system.model, &ctx.cfg.mem, tp);
    let analytic = MhaLatencyEstimator::new(geo, ctx.cal.l_tile, ctx.cal.l_gwrite);
    let trace = TraceDrivenCostModel::new(&ctx.cfg, geo, true);
    let seq_lens: Vec<u64> = [
        1u64, 8, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384,
    ]
    .to_vec();
    let report = calibration_drift(&analytic, &trace, &seq_lens, opts.tolerance);

    println!(
        "\n## Calibration drift — Algorithm 1 vs cycle-level trace ({}, TP={}, tolerance {:.0}%)\n",
        opts.system.model.name,
        tp,
        opts.tolerance * 100.0
    );
    println!("| seq len | analytic (cycles) | trace (cycles) | rel err | |");
    println!("|---:|---:|---:|---:|---|");
    for p in &report.points {
        let flag = if p.rel_err() > report.tolerance {
            "DRIFT"
        } else {
            ""
        };
        println!(
            "| {} | {:.0} | {:.0} | {:.1}% | {} |",
            p.seq_len,
            p.analytic,
            p.trace,
            p.rel_err() * 100.0,
            flag
        );
    }
    let violations = report.violations();
    if violations.is_empty() {
        println!(
            "\nno drift beyond {:.0}%: the Algorithm 1 constants still summarize the cycle model",
            opts.tolerance * 100.0
        );
        Ok(())
    } else {
        println!(
            "\n{} of {} points drift beyond {:.0}% (max {:.1}%) — short contexts pay Algorithm 1's \
             full-tile rounding; recalibrate or switch those runs to --cost-model trace",
            violations.len(),
            report.points.len(),
            opts.tolerance * 100.0,
            report.max_rel_err() * 100.0
        );
        // A drifted calibration is a failure, not a report: CI and
        // scripts gate on the exit code.
        Err(format!(
            "calibration drift: {} of {} points exceed the {:.0}% tolerance",
            violations.len(),
            report.points.len(),
            opts.tolerance * 100.0
        )
        .into())
    }
}

fn cmd_eval(opts: &Options, suite_name: &str) -> Result<(), Box<dyn std::error::Error>> {
    if opts.list {
        println!("\n## Eval suites\n");
        println!("| suite | description |");
        println!("|---|---|");
        for name in neupims_eval::SUITE_NAMES {
            println!(
                "| {} | {} |",
                name,
                neupims_eval::builtin_description(name).unwrap_or_default()
            );
        }
        println!(
            "\nrun one with: neupims-sim eval <suite> [--seed N] [--jobs N] [--reports-dir DIR]"
        );
        return Ok(());
    }
    let suite = neupims_eval::load_suite(suite_name)?;
    eprintln!(
        "running eval suite {} ({} scenarios, {} checks) ...",
        suite.name,
        suite.scenarios.len(),
        suite
            .scenarios
            .iter()
            .map(|s| s.expects.len())
            .sum::<usize>()
            + suite.compares.len()
    );
    let overrides = neupims_eval::EvalOverrides {
        seed: opts.seed,
        jobs: opts.jobs,
        cost_model: opts.cost_model_set.then_some(opts.system.cost_model),
        memo_cache: opts.memo_cache.clone(),
    };
    let report = neupims_eval::run_eval_with_opts(&suite, &overrides)?;
    print!("{}", report.render());
    // The persistent-cache CI smoke job greps these lines: a rerun over
    // a populated --memo-cache must report a 100.0% disk hit rate.
    for run in &report.scenarios {
        if let Some(rate) = run.metrics.get("disk_hit_rate") {
            println!("{}: disk hit rate: {:.1}%", run.name, rate * 100.0);
        }
    }
    let (keyed, latest) =
        neupims_eval::store_report(std::path::Path::new(&opts.reports_dir), &report)?;
    println!("\nstored: {} (alias {})", keyed.display(), latest.display());
    let (_, _, fail) = report.counts();
    if fail > 0 {
        return Err(format!(
            "eval suite {} violated {} fail-severity golden check(s)",
            suite.name, fail
        )
        .into());
    }
    Ok(())
}

fn cmd_calibrate(ctx: &ExperimentContext) -> Result<(), Box<dyn std::error::Error>> {
    println!("\n## Calibrated PIM constants (from the cycle model)\n");
    let c = &ctx.cal;
    println!("| constant | value |");
    println!("|---|---|");
    println!("| L_tile (composite PIM_GEMV) | {:.1} cycles |", c.l_tile);
    println!(
        "| L_tile (fine-grained Newton) | {:.1} cycles |",
        c.l_tile_fine
    );
    println!("| L_GWRITE | {:.1} cycles |", c.l_gwrite);
    println!("| dot-product round | {} cycles |", c.dot_cycles);
    println!(
        "| MEM stream bandwidth (solo) | {:.2} B/cycle/channel |",
        c.mem_stream_bw
    );
    println!(
        "| MEM stream bandwidth (during PIM) | {:.2} B/cycle/channel |",
        c.mem_stream_bw_shared
    );
    println!(
        "| PIM in-bank bandwidth | {:.2} B/cycle/channel |",
        c.pim_stream_bw
    );
    println!("| PIM bandwidth advantage | {:.2}x |", c.pim_advantage());
    Ok(())
}

fn cmd_fig4() -> Result<(), Box<dyn std::error::Error>> {
    println!("\n## Figure 4 — arithmetic intensity of LLM layers (A100 roofline)\n");
    println!("| model | phase | operator | FLOPs/byte | achievable TFLOPS |");
    println!("|---|---|---|---:|---:|");
    for r in fig4_roofline() {
        let phase = match r.phase {
            Phase::Summarization => "summarization",
            Phase::Generation => "generation",
        };
        println!(
            "| {} | {} | {} | {:.2} | {:.1} |",
            r.model, phase, r.operator, r.intensity, r.tflops
        );
    }
    Ok(())
}

fn cmd_fig5() -> Result<(), Box<dyn std::error::Error>> {
    println!("\n## Figure 5 — GPU resource utilization (generation phase)\n");
    println!("| GPU | model | compute | bandwidth | capacity |");
    println!("|---|---|---:|---:|---:|");
    for r in fig5_gpu_util() {
        println!(
            "| {} | {} | {:.1}% | {:.1}% | {:.1}% |",
            r.gpu,
            r.model,
            r.compute * 100.0,
            r.bandwidth * 100.0,
            r.capacity * 100.0
        );
    }
    Ok(())
}

fn cmd_fig14(ctx: &ExperimentContext) -> Result<(), Box<dyn std::error::Error>> {
    println!("\n## Figure 14 — (TP, PP) scaling at 256 requests (GPT3-7B)\n");
    println!("| devices | (TP, PP) | throughput (1k tokens/s) |");
    println!("|---:|---|---:|");
    for r in fig14_parallelism(ctx)? {
        println!(
            "| {} | ({}, {}) | {:.1} |",
            r.devices,
            r.tp,
            r.pp,
            r.tokens_per_sec / 1e3
        );
    }
    Ok(())
}

fn cmd_table5(ctx: &ExperimentContext) -> Result<(), Box<dyn std::error::Error>> {
    println!("\n## Table 5 — DRAM power and energy\n");
    let t = table5_power(ctx)?;
    println!("| system | average power (mW/channel) |");
    println!("|---|---:|");
    println!("| NPU-only HBM (non-PIM) | {:.1} |", t.baseline_mw);
    println!("| NeuPIMs dual-row-buffer PIM | {:.1} |", t.neupims_mw);
    println!(
        "\npower ratio {:.2}x, fleet speedup {:.2}x -> relative energy {:.2} ({}% reduction)",
        t.neupims_mw / t.baseline_mw,
        t.speedup,
        t.energy_ratio,
        ((1.0 - t.energy_ratio) * 100.0).round()
    );
    Ok(())
}

fn cmd_area() -> Result<(), Box<dyn std::error::Error>> {
    println!("\n## Area overhead of dual row buffers (CACTI-like model, 22 nm)\n");
    println!(
        "dual row buffer area overhead: {:.2}% (paper: 3.11%)",
        neupims_power::AreaModel::default().dual_row_buffer_overhead() * 100.0
    );
    Ok(())
}
