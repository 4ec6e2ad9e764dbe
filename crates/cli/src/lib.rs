//! `neupims` — experiment driver reproducing every table and figure of the
//! NeuPIMs paper (ASPLOS'24), plus backend-generic sweeps and serving.
//!
//! ```text
//! neupims <command> [suite] [--<key> VALUE]... [--quick] [--jobs N]
//!                   [--tenants SPEC] [--memo-cache DIR] [--tolerance F]
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
//! --<key> VALUE sets one of the shared keys a suite's [[scenario]] also
//!   takes (docs/EVAL.md lists each with its rule): backend, scheduler,
//!   chunk-tokens, preemption, swap-gbps, cost-model, replicas, policy,
//!   max-batch, model, slo-ttft-ms, slo-tpot-ms, tp, pp, interconnect,
//!   link-gbps, autoscale, router, min-replicas, dataset, batch, samples,
//!   requests, rate, seed. VALUE is read as a TOML value (a bare word is a
//!   string) and checked by the suite parser's rule for that key, so a bad
//!   value fails with the same error naming the key either way. fleet
//!   cycles backend and scheduler name lists over its replicas (default
//!   4); with neither --tp nor --pp a backend runs unsharded. A shared
//!   key or option the command never reads is an error naming it: eval,
//!   its aliases and all take only --cost-model and --seed, which
//!   override every scenario (suites set the rest), plus --jobs,
//!   --memo-cache and --reports-dir (and eval --list); sweep takes the
//!   warm-batch keys backend, cost-model, model, tp, pp, interconnect,
//!   link-gbps, dataset, batch (at most 65536) and samples, and --quick;
//!   serve and fleet take every key but batch and samples, and --jobs,
//!   --memo-cache and --tenants; drift takes only model and
//!   --tolerance; calibrate, fig4, fig5, fig14, table5 and area take
//!   none.
//! --tolerance F: `drift` reports where the analytic and trace cost models
//!   disagree by more than F (relative, default 0.10).
//! --memo-cache DIR (on serve/fleet/eval, with --cost-model trace)
//!   persists the replay memo to DIR: a rerun over the same hardware
//!   config loads every priced bucket from disk instead of replaying it
//!   (corrupt or version-mismatched entries are ignored with a warning);
//!   `fleet` additionally shares one memo across all replicas and
//!   pre-replays cold buckets in parallel before serving starts
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
//! --tenants takes name:weight:priority[:ttft_ms:tpot_ms] entries under
//! the [[scenario.tenant]] rules (priority >= 100 bypasses admission
//! control), --autoscale picks the replica scaler (static | reactive |
//! predictive; scalers pay each spin-up's warmup cycles and park idle
//! replicas down to --min-replicas, at most --replicas), and --router
//! picks dispatch scoring (load | round-robin | capability; --policy is
//! the bare fleet's and an error beside these flags). The metric map adds
//! `tenant_<name>_*` keys per tenant and the `goodput_per_cost` bottom
//! line (tokens from SLO-attaining requests per replica-Mcycle of
//! committed capacity).
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

use neupims_core::experiments::{fig14_parallelism, fig4_roofline, fig5_gpu_util, table5_power};
use neupims_core::fleet::FleetRequest;
use neupims_core::orchestrator::TenantClass;
use neupims_core::system::{System, SystemSpec};
use neupims_eval::spec::{set_shares, tenant_class};
use neupims_eval::toml::{parse_scalar, Table};
use neupims_eval::{ScenarioKind, Settings, ORCHESTRATION_KEYS, SHARED_KEYS};
use neupims_kvcache::KvGeometry;
use neupims_pim::calibrate;
use neupims_sched::{
    calibration_drift, MhaLatencyEstimator, TraceDrivenCostModel, DEFAULT_DRIFT_TOLERANCE,
};
use neupims_types::{request_id, NeuPimsConfig, Phase};
use neupims_workload::{arrival_times, request_buffer, ArrivalProcess, Dataset, DEFAULT_SEED};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

#[derive(Debug)]
struct Options {
    quick: bool,
    /// Every shared setting (`--backend`, `--tp`, `--requests`, ...): the
    /// keys an eval suite's `[[scenario]]` takes, parsed by the same
    /// [`Settings::set`].
    shared: Settings,
    /// The shared keys and [`OPTION_KEYS`] given on the command line.
    given_keys: Vec<String>,
    memo_cache: Option<PathBuf>,
    tolerance: f64,
    jobs: Option<usize>,
    /// `--tenants`: the orchestrator's tenant classes and their weights.
    tenants: Option<(Vec<TenantClass>, Vec<f64>)>,
    suite: Option<String>,
    list: bool,
    reports_dir: String,
}

impl Options {
    /// Whether shared key `key` was given on the command line.
    fn given(&self, key: &str) -> bool {
        self.given_keys.iter().any(|k| k == key)
    }
}

/// Entry point of the `neupims` CLI: parses `std::env::args` and runs the
/// requested command (also re-exported as the workspace root's `neupims`
/// bin, so `cargo run --release -- <command>` works from the repo root).
pub fn run_cli() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&args).and_then(|(command, opts)| run(&command, &opts));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parses the command line into its command (default `all`) and options.
/// Each `--<key> text` of a [`SHARED_KEYS`] entry goes through
/// [`Settings::set`], the text read as a TOML scalar (a bare word is a
/// string), so a flag and a suite key take the same values with the same
/// errors.
fn parse_args(args: &[String]) -> Result<(String, Options), Box<dyn std::error::Error>> {
    let mut command = None;
    let mut opts = Options {
        quick: false,
        shared: Settings {
            system: SystemSpec {
                replicas: 4,
                max_batch: 64,
                ..SystemSpec::default()
            },
            dataset: Dataset::ShareGpt,
            batch: None,
            samples: 10,
            requests: 64,
            rate: 3.0,
            seed: None,
        },
        given_keys: Vec::new(),
        memo_cache: None,
        tolerance: DEFAULT_DRIFT_TOLERANCE,
        jobs: None,
        tenants: None,
        suite: None,
        list: false,
        reports_dir: "reports".to_owned(),
    };
    let mut tenants = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} requires {what}"))
        };
        if let Some(key) = arg.strip_prefix("--").filter(|k| OPTION_KEYS.contains(k)) {
            opts.given_keys.push(key.to_owned());
        }
        match arg.as_str() {
            "--list" => opts.list = true,
            "--quick" => opts.quick = true,
            "--memo-cache" => opts.memo_cache = Some(PathBuf::from(value("a directory")?)),
            "--reports-dir" => opts.reports_dir = value("a directory")?,
            "--tenants" => {
                tenants = Some(value("a spec: name:weight:priority[:ttft_ms:tpot_ms],...")?);
            }
            "--tolerance" => match value("a number")?.parse() {
                Ok(t) if t >= 0.0 => opts.tolerance = t,
                _ => return Err("--tolerance requires a non-negative relative error".into()),
            },
            "--jobs" => match value("a number")?.parse() {
                Ok(n) if n > 0 => opts.jobs = Some(n),
                _ => return Err("--jobs requires a positive number of worker threads".into()),
            },
            flag => match flag.strip_prefix("--") {
                Some(key) if SHARED_KEYS.contains(&key) => {
                    let text = value("a value")?;
                    opts.shared
                        .set(key, &parse_scalar(&text))
                        .map_err(|e| format!("{flag}: {}", e.0))?;
                    opts.given_keys.push(key.to_owned());
                }
                _ if command.is_none() => command = Some(flag.to_owned()),
                // A second positional argument names the eval suite.
                _ if opts.suite.is_none() && !flag.starts_with('-') => {
                    opts.suite = Some(flag.to_owned());
                }
                _ => return Err(format!("unexpected argument {flag:?}").into()),
            },
        }
    }
    if opts.quick {
        opts.shared.samples = opts.shared.samples.min(3);
    }
    // Tenant SLOs default to the system's, so they parse after every flag.
    if let Some(spec) = tenants {
        opts.tenants = Some(parse_tenants(&spec, &opts.shared.system)?);
    }
    Ok((command.unwrap_or_else(|| "all".to_owned()), opts))
}

/// The CLI's own options besides the [`SHARED_KEYS`], by flag name.
const OPTION_KEYS: [&str; 7] = [
    "quick",
    "list",
    "jobs",
    "memo-cache",
    "reports-dir",
    "tenants",
    "tolerance",
];

/// The shared keys and [`OPTION_KEYS`] `command` reads, each in the
/// order of its list.
fn keys_read(command: &str) -> Vec<&'static str> {
    let (shared, options): (fn(&str) -> bool, &[&str]) = match command {
        "eval" => (
            |key| matches!(key, "cost-model" | "seed"),
            &["list", "jobs", "memo-cache", "reports-dir"],
        ),
        "fig6" | "fig12" | "fig13" | "fig15" | "table4" | "all" => (
            |key| matches!(key, "cost-model" | "seed"),
            &["jobs", "memo-cache", "reports-dir"],
        ),
        // The keys of a throughput scenario's warm batches, which sweep
        // draws from `DEFAULT_SEED`.
        "sweep" => (
            |key| key != "seed" && ScenarioKind::Throughput.reads(key),
            &["quick"],
        ),
        "serve" | "fleet" => (
            |key| ScenarioKind::Serving.reads(key),
            &["jobs", "memo-cache", "tenants"],
        ),
        "drift" => (|key| key == "model", &["tolerance"]),
        "calibrate" | "fig4" | "fig5" | "fig14" | "table5" | "area" => (|_| false, &[]),
        // An unknown command is an error of its own.
        _ => (|_| true, &OPTION_KEYS),
    };
    SHARED_KEYS
        .into_iter()
        .filter(|key| shared(key))
        .chain(options.iter().copied())
        .collect()
}

fn run(command: &str, opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    // A flag the command would ignore is an error, not a silent no-op.
    let read = keys_read(command);
    if let Some(key) = opts.given_keys.iter().find(|k| !read.contains(&k.as_str())) {
        let reads = match read.as_slice() {
            [] => "no option".to_owned(),
            keys => format!("only --{}", keys.join(", --")),
        };
        return Err(format!("--{key} does not apply to {command}: it reads {reads}").into());
    }
    // `serve` builds one replica and `sweep` prices one system: a name list
    // (which `fleet` cycles over its replicas) is an error, not a silent
    // first pick.
    if matches!(command, "serve" | "sweep") {
        let system = &opts.shared.system;
        for (flag, names) in [
            ("--backend", &system.backend),
            ("--scheduler", &system.scheduler),
        ] {
            if names.contains(',') {
                return Err(
                    format!("{command} takes one {flag} name, not the list {names:?}").into(),
                );
            }
        }
    }
    // `--tenants` and the orchestration keys run the orchestrator, which
    // routes by `--router`: a `--policy` beside them would be ignored.
    if opts.given("policy") {
        let mut orchestration = ORCHESTRATION_KEYS.iter().chain(&["tenants"]);
        if let Some(key) = orchestration.find(|key| opts.given(key)) {
            return Err(format!(
                "--policy does not apply with --{key}: the orchestrator routes by --router"
            )
            .into());
        }
    }
    if command == "fig4" {
        return cmd_fig4();
    }
    if command == "fig5" {
        return cmd_fig5();
    }
    if command == "area" {
        return cmd_area();
    }
    // Each eval scenario carries its own hardware (suites may override the
    // memory system; each distinct configuration is calibrated once per
    // process), so eval and the artifacts that are suites of the same name
    // skip the notice below.
    if command == "eval" {
        return cmd_eval(opts, opts.suite.as_deref().unwrap_or("smoke"));
    }
    if matches!(command, "fig6" | "fig12" | "fig13" | "fig15" | "table4") {
        return cmd_eval(opts, command);
    }

    // Every remaining command prices the system's calibrated hardware.
    eprintln!("calibrating PIM constants from the cycle model ...");
    let hardware = &opts.shared.system.hardware;

    match command {
        "sweep" => cmd_sweep(opts),
        "serve" | "fleet" => cmd_fleet(opts, command),
        "calibrate" => cmd_calibrate(hardware),
        "drift" => cmd_drift(opts),
        "fig14" => cmd_fig14(hardware),
        "table5" => cmd_table5(hardware),
        "all" => {
            cmd_fig4()?;
            cmd_fig5()?;
            cmd_calibrate(hardware)?;
            cmd_eval(opts, "fig6")?;
            cmd_eval(opts, "fig12")?;
            cmd_eval(opts, "fig13")?;
            cmd_fig14(hardware)?;
            cmd_eval(opts, "fig15")?;
            cmd_eval(opts, "table4")?;
            cmd_table5(hardware)?;
            cmd_area()
        }
        other => {
            eprintln!("unknown command {other:?} (try: all, fig12, table4, ...)");
            Err("unknown command".into())
        }
    }
}

fn cmd_sweep(opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    let system = &opts.shared.system;
    let batches: Vec<usize> = match opts.shared.batch {
        Some(b) => vec![b],
        None if opts.quick => vec![64, 256],
        None => vec![64, 128, 256, 384, 512],
    };
    println!(
        "\n## Sweep — {} / {} / {} ({} cost model; tokens/s, mean of {} warm batches)\n",
        system.backend,
        system.model.name,
        opts.shared.dataset.name(),
        system.cost_model,
        opts.shared.samples
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
        let (tokens_per_sec, _) = system.warm_means(
            opts.shared.dataset,
            batch,
            DEFAULT_SEED,
            opts.shared.samples,
            None,
        )?;
        println!("| {batch} | {tokens_per_sec:.0} |");
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
    let shared = &opts.shared;
    let mut rng = StdRng::seed_from_u64(seed);
    let poisson = ArrivalProcess::Poisson { rate: shared.rate };
    let arrivals = arrival_times(&mut rng, &poisson, shared.requests)?;
    let total_weight: f64 = tenant_weights.map_or(0.0, |w| w.iter().sum());
    let mut requests = request_buffer(arrivals.len())?;
    for (i, &at) in arrivals.iter().enumerate() {
        let req = FleetRequest {
            id: request_id(i)?,
            input_len: shared.dataset.sample_input(&mut rng),
            output_len: shared.dataset.sample_output(&mut rng).min(128),
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
fn cmd_fleet(opts: &Options, command: &str) -> Result<(), Box<dyn std::error::Error>> {
    let mut system = opts.shared.system.clone();
    let default_seed = if command == "serve" {
        // `serve` builds one replica: another replica count is an error,
        // not a silent first pick.
        if opts.given("replicas") && system.replicas != 1 {
            return Err(format!(
                "serve runs one replica, not --replicas {} (use fleet)",
                system.replicas
            )
            .into());
        }
        system.replicas = 1;
        DEFAULT_SERVE_SEED
    } else {
        DEFAULT_FLEET_SEED
    };
    let mut weights = vec![1.0];
    if let Some((tenants, tenant_weights)) = &opts.tenants {
        (system.tenants, weights) = (tenants.clone(), tenant_weights.clone());
        // `--tenants` alone asks for the orchestrator at its static default.
        system.autoscale.get_or_insert_with(|| "static".to_owned());
    }
    // Under trace pricing the whole fleet shares one replay memo (disk-
    // backed with --memo-cache), so each context bucket simulates once.
    let memo = system.trace_memo(opts.memo_cache.as_deref())?;
    let mut built = system.build(memo.as_ref(), opts.jobs)?;
    let seed = opts.shared.seed.unwrap_or(default_seed);
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
        System::Orchestrator(orch) => {
            let tenants = orch.tenants().len();
            format!(
                "{} router, {} autoscale, {tenants} tenant{}",
                orch.route_name(),
                orch.autoscale_name(),
                if tenants == 1 { "" } else { "s" }
            )
        }
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
        opts.shared.requests,
        opts.shared.dataset.name(),
        opts.shared.rate,
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
/// entries separated by commas, each field read into the
/// `[[scenario.tenant]]` key of the same meaning (`weight`, `priority`,
/// `slo-ttft-ms`, `slo-tpot-ms`) and validated by the suite parser's
/// [`tenant_class`]. TTFT/TPOT default to the system's targets; weights
/// are normalized to shares by the suite parser's [`set_shares`].
fn parse_tenants(
    spec: &str,
    system: &SystemSpec,
) -> Result<(Vec<TenantClass>, Vec<f64>), Box<dyn std::error::Error>> {
    let mut tenants = Vec::new();
    let mut weights = Vec::new();
    for entry in spec.split(',') {
        let parts: Vec<&str> = entry.trim().split(':').collect();
        if !(3..=5).contains(&parts.len()) {
            return Err(format!(
                "bad --tenants entry {entry:?} (expected name:weight:priority[:ttft_ms:tpot_ms])"
            )
            .into());
        }
        let fields: Table = ["weight", "priority", "slo-ttft-ms", "slo-tpot-ms"]
            .iter()
            .zip(&parts[1..])
            .map(|(key, text)| (key.to_string(), parse_scalar(text)))
            .collect();
        let (weight, tenant) = tenant_class(parts[0], &fields, system)
            .map_err(|e| format!("--tenants entry {entry:?}: {}", e.0))?;
        tenants.push(tenant);
        weights.push(weight);
    }
    set_shares(&mut tenants, &weights).map_err(|e| format!("--tenants {spec:?}: {}", e.0))?;
    Ok((tenants, weights))
}

fn cmd_drift(opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    let system = &opts.shared.system;
    let cal = calibrate(&system.hardware)?;
    let model = &system.model;
    let tp = model.parallelism.tp;
    let geo = KvGeometry::with_tp(model, &system.hardware.mem, tp);
    let analytic = MhaLatencyEstimator::new(geo, cal.l_tile, cal.l_gwrite);
    let trace = TraceDrivenCostModel::new(&system.hardware, geo, true);
    let seq_lens: Vec<u64> = [
        1u64, 8, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384,
    ]
    .to_vec();
    let report = calibration_drift(&analytic, &trace, &seq_lens, opts.tolerance);

    println!(
        "\n## Calibration drift — Algorithm 1 vs cycle-level trace ({}, TP={}, tolerance {:.0}%)\n",
        model.name,
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
        seed: opts.shared.seed,
        jobs: opts.jobs,
        cost_model: opts
            .given("cost-model")
            .then_some(opts.shared.system.cost_model),
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

fn cmd_calibrate(hardware: &NeuPimsConfig) -> Result<(), Box<dyn std::error::Error>> {
    let c = calibrate(hardware)?;
    println!("\n## Calibrated PIM constants (from the cycle model)\n");
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

fn cmd_fig14(hardware: &NeuPimsConfig) -> Result<(), Box<dyn std::error::Error>> {
    println!("\n## Figure 14 — (TP, PP) scaling at 256 requests (GPT3-7B)\n");
    println!("| devices | (TP, PP) | throughput (1k tokens/s) |");
    println!("|---:|---|---:|");
    for r in fig14_parallelism(hardware)? {
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

fn cmd_table5(hardware: &NeuPimsConfig) -> Result<(), Box<dyn std::error::Error>> {
    println!("\n## Table 5 — DRAM power and energy\n");
    let t = table5_power(hardware)?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use neupims_eval::toml::Value;
    use neupims_eval::{ScenarioSpec, SuiteSpec};
    use neupims_workload::scenario::ArrivalProcess;
    use proptest::prelude::*;

    /// Each shared key with a valid value away from both front-ends'
    /// defaults, then values its rule rejects.
    const CASES: [(&str, &str, &[&str]); 25] = [
        (
            "backend",
            "neupims,gpu",
            &["quantum", "neupims,quantum", "7"],
        ),
        ("scheduler", "interleaved,lump", &["fifo", "lump,"]),
        ("chunk-tokens", "512", &["0", "4294967296", "1.5"]),
        ("preemption", "swap", &["evict"]),
        ("swap-gbps", "16.5", &["inf", "0", "nan"]),
        ("cost-model", "trace", &["exact"]),
        ("replicas", "3", &["0", "-1"]),
        ("policy", "kv-aware", &["random"]),
        ("max-batch", "16", &["0"]),
        ("model", "gpt3-13b", &["gpt4"]),
        ("slo-ttft-ms", "20", &["inf", "-5"]),
        ("slo-tpot-ms", "8.5", &["nan", "0"]),
        ("tp", "2", &["0", "4294967296"]),
        ("pp", "4", &["0"]),
        ("interconnect", "noc", &["ethernet"]),
        ("link-gbps", "2", &["inf", "0"]),
        ("autoscale", "predictive", &["psychic"]),
        ("router", "capability", &["ouija"]),
        // At most the one replica a scenario has by default.
        ("min-replicas", "1", &["0"]),
        ("dataset", "alpaca", &["wiki"]),
        ("batch", "128", &["0"]),
        ("samples", "2", &["0"]),
        ("requests", "24", &["0"]),
        ("rate", "6", &["inf", "0"]),
        ("seed", "7", &["-1", "1.5"]),
    ];

    /// `text` as a suite file spells it: the value the CLI reads it as.
    fn toml_text(text: &str) -> String {
        match parse_scalar(text) {
            Value::Str(s) => format!("{s:?}"),
            _ => text.to_owned(),
        }
    }

    fn suite(kind: &str, lines: &str) -> Result<ScenarioSpec, String> {
        let text = format!(
            "[suite]\nname = \"x\"\n[[scenario]]\nname = \"s\"\nkind = \"{kind}\"\n{lines}"
        );
        SuiteSpec::parse(&text)
            .map(|suite| suite.scenarios[0].clone())
            .map_err(|e| e.0)
    }

    /// The shared settings a parsed scenario holds (a throughput
    /// scenario has no requests or rate; zeros stand in).
    fn spec_settings(s: &ScenarioSpec) -> Settings {
        let (requests, rate) = match &s.workload {
            Some(w) => {
                let ArrivalProcess::Poisson { rate } = w.arrival else {
                    panic!("{:?}", w.arrival)
                };
                (w.requests, rate)
            }
            None => (0, 0.0),
        };
        Settings {
            // The spec's one default tenant class is its own.
            system: SystemSpec {
                tenants: Vec::new(),
                ..s.system.clone()
            },
            dataset: s.dataset,
            batch: Some(s.batch),
            samples: s.samples,
            requests,
            rate,
            seed: Some(s.seed),
        }
    }

    fn cli(args: &[impl AsRef<str>]) -> Result<Options, String> {
        let args: Vec<String> = args.iter().map(|a| a.as_ref().to_owned()).collect();
        parse_args(&args)
            .map(|(_, opts)| opts)
            .map_err(|e| e.to_string())
    }

    /// Every shared key parses to the same setting, and fails with the
    /// same error naming it, through `--<key>` and through a suite's
    /// `[[scenario]]`.
    #[test]
    fn shared_keys_agree_across_front_ends() -> Result<(), String> {
        assert_eq!(CASES.map(|c| c.0), SHARED_KEYS);
        let mut args = vec!["serve".to_owned()];
        // The lines of the serving scenario, then of the throughput one.
        let mut lines = [String::new(), String::new()];
        for (key, valid, invalid) in CASES {
            // A valid value moves its setting off each front-end's default.
            let flag = format!("--{key}");
            assert_ne!(
                cli(&["serve", &flag, valid])?.shared,
                cli(&["serve"])?.shared
            );
            // Only warm batches read `batch` and `samples`.
            let warm = usize::from(matches!(key, "batch" | "samples"));
            let kind = ["serving", "throughput"][warm];
            let line = format!("{key} = {}\n", toml_text(valid));
            assert_ne!(
                spec_settings(&suite(kind, &line)?),
                spec_settings(&suite(kind, "")?)
            );
            // `policy` is the bare fleet's: beside the orchestration keys
            // a suite rejects it, so the all-keys run keeps its default.
            if key != "policy" {
                args.extend([flag.clone(), valid.to_owned()]);
                lines[warm].push_str(&line);
            }

            for bad in invalid {
                let cli_err = cli(&["serve", &flag, bad]).unwrap_err();
                let spec_err = suite(kind, &format!("{key} = {}\n", toml_text(bad))).unwrap_err();
                let cli_msg = cli_err.strip_prefix(&format!("{flag}: ")).unwrap();
                let spec_msg = spec_err.strip_prefix("scenario #1: ").unwrap();
                assert_eq!(cli_msg, spec_msg, "{key} = {bad}");
                assert!(cli_msg.contains(key), "{key} = {bad}: {cli_msg}");
            }
        }
        // With every key but `policy` set, nothing else is left to either
        // default: the throughput scenario holds `batch` and `samples`,
        // the serving one every other key.
        let serving = spec_settings(&suite("serving", &lines[0])?);
        let throughput = spec_settings(&suite("throughput", &lines[1])?);
        assert_eq!(
            cli(&args)?.shared,
            Settings {
                batch: throughput.batch,
                samples: throughput.samples,
                ..serving
            }
        );

        // A typo'd key is an error in both, never a default.
        assert!(cli(&["serve", "--bakend", "gpu"])
            .unwrap_err()
            .contains("--bakend"));
        assert!(suite("serving", "bakend = \"gpu\"\n")
            .unwrap_err()
            .contains("\"bakend\""));
        Ok(())
    }

    /// Commands, a suite name and values the flags take, valid and not.
    const WORDS: [&str; 24] = [
        "serve",
        "fleet",
        "eval",
        "sweep",
        "smoke",
        "-",
        "--",
        "",
        "0",
        "-1",
        "2.5",
        "inf",
        "nan",
        "4294967296",
        "18446744073709551616",
        "1e309",
        "true",
        "\"x",
        "neupims,gpu",
        ",",
        "a:1:2",
        "a:1:2:3:4,b:0:0",
        "a:0:0,b:0:0",
        "a:-1:1:nan:inf",
    ];

    /// Bytes that steer the value grammars: numbers, lists and tenants.
    const SOUP: &[u8] = b":,.-+0123456789einfatru\" ";

    /// One argument of kind `kind % 4`: a known flag, a word, a soup of
    /// value bytes, or arbitrary bytes read as lossy UTF-8.
    fn arg_of(kind: u8, choice: u64, bytes: &[u8]) -> String {
        let flags: Vec<&str> = SHARED_KEYS.into_iter().chain(OPTION_KEYS).collect();
        match kind % 4 {
            0 => format!("--{}", flags[choice as usize % flags.len()]),
            1 => WORDS[choice as usize % WORDS.len()].to_owned(),
            2 => bytes
                .iter()
                .map(|&b| SOUP[b as usize % SOUP.len()] as char)
                .collect(),
            _ => String::from_utf8_lossy(bytes).into_owned(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// `parse_args` returns `Ok` or `Err` on any command line.
        #[test]
        fn flag_parsing_never_panics(
            args in prop::collection::vec(
                (any::<u8>(), any::<u64>(), prop::collection::vec(any::<u8>(), 0..24)),
                0..12,
            ),
        ) {
            let args: Vec<String> = args.iter().map(|(k, c, b)| arg_of(*k, *c, b)).collect();
            let _ = parse_args(&args);
        }
    }
}
