//! CLI output goldens: `fleet`, `serve`, `sweep`, `calibrate`, `fig14`
//! and `table5` stdout, byte for byte, the exit status of hostile
//! `--tenants`, zero-count and oversized input and of options a command
//! never reads, and the `fig6`, `fig12` and `fig13` aliases grading
//! their eval suites green.
//!
//! `serve` and `fleet` print the metric map an eval serving scenario is
//! scored on, so these pin every key of it across replica construction,
//! backend/scheduler cycling, preemption, trace pricing, sharding, and
//! the orchestrator path.

use std::process::Command;

fn assert_stdout_matches(golden: &str, args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_neupims-sim"))
        .args(args)
        .output()
        .expect("the CLI binary runs");
    assert!(
        out.status.success(),
        "neupims-sim {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let path = format!(
        "{}/tests/golden/cli/{golden}.md",
        env!("CARGO_MANIFEST_DIR")
    );
    let expected = std::fs::read_to_string(&path).expect("golden file exists");
    let actual = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    assert!(
        actual == expected,
        "neupims-sim {args:?} drifted from {path}\n--- expected\n{expected}\n--- actual\n{actual}"
    );
}

#[test]
fn fleet_default() {
    assert_stdout_matches(
        "fleet_default",
        &["fleet", "--requests", "48", "--replicas", "4"],
    );
}

#[test]
fn fleet_heterogeneous_swap_kv_aware() {
    assert_stdout_matches(
        "fleet_mixed",
        &[
            "fleet",
            "--requests",
            "48",
            "--replicas",
            "4",
            "--backend",
            "neupims,gpu",
            "--scheduler",
            "interleaved,lump",
            "--preemption",
            "swap",
            "--policy",
            "kv-aware",
        ],
    );
}

#[test]
fn fleet_trace_priced() {
    assert_stdout_matches(
        "fleet_trace",
        &[
            "fleet",
            "--requests",
            "48",
            "--replicas",
            "4",
            "--cost-model",
            "trace",
        ],
    );
}

#[test]
fn fleet_sharded_on_noc() {
    assert_stdout_matches(
        "fleet_tp2_noc",
        &[
            "fleet",
            "--replicas",
            "2",
            "--tp",
            "2",
            "--interconnect",
            "noc",
        ],
    );
}

#[test]
fn fleet_orchestrated_tenants() {
    assert_stdout_matches(
        "fleet_tenants",
        &[
            "fleet",
            "--requests",
            "64",
            "--replicas",
            "4",
            "--tenants",
            "chat:2:220:30:50,batch:1:40",
            "--autoscale",
            "predictive",
            "--router",
            "capability",
        ],
    );
}

/// An orchestrated run with one tenant names it in the singular.
#[test]
fn single_tenant_header_is_singular() {
    let args = [
        "fleet",
        "--requests",
        "8",
        "--replicas",
        "2",
        "--backend",
        "gpu",
        "--router",
        "load",
    ];
    let out = Command::new(env!("CARGO_BIN_EXE_neupims-sim"))
        .args(args)
        .output()
        .expect("the CLI binary runs");
    assert!(out.status.success(), "neupims-sim {args:?} failed");
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let header = stdout
        .lines()
        .find(|l| l.starts_with("### fleet"))
        .expect("a report header");
    assert!(
        header.contains("; jsq router, static autoscale, 1 tenant; "),
        "{header}"
    );
}

#[test]
fn serve_default() {
    assert_stdout_matches("serve", &["serve", "--requests", "32"]);
}

/// `serve` with the replica knobs set away from their defaults: the
/// scheduler, preemption policy and trace pricing (with its replay memo).
#[test]
fn serve_interleaved_swap_trace_priced() {
    assert_stdout_matches(
        "serve_interleaved_swap_trace",
        &[
            "serve",
            "--requests",
            "48",
            "--max-batch",
            "16",
            "--scheduler",
            "interleaved",
            "--preemption",
            "swap",
            "--cost-model",
            "trace",
        ],
    );
}

/// `serve` on a sharded replica: a TP2 chip group over the NoC fabric.
#[test]
fn serve_sharded_on_noc_chunked() {
    assert_stdout_matches(
        "serve_tp2_noc_chunked",
        &[
            "serve",
            "--requests",
            "24",
            "--backend",
            "naive",
            "--tp",
            "2",
            "--interconnect",
            "noc",
            "--scheduler",
            "chunked",
        ],
    );
}

#[test]
fn fig14_table() {
    assert_stdout_matches("fig14", &["fig14"]);
}

#[test]
fn sweep_one_batch() {
    assert_stdout_matches("sweep", &["sweep", "--batch", "64", "--samples", "2"]);
}

#[test]
fn calibrate_table() {
    assert_stdout_matches("calibrate", &["calibrate"]);
}

#[test]
fn table5_table() {
    assert_stdout_matches("table5", &["table5"]);
}

/// `fig6`, `fig12` and `fig13` are aliases of `eval <suite>`: each grades
/// its suite and exits 0 only when every fail-severity check holds.
#[test]
fn fig13_alias_grades_its_suite() {
    for figure in ["fig6", "fig12", "fig13"] {
        let reports = format!("{}/eval-reports-{figure}", env!("CARGO_TARGET_TMPDIR"));
        let out = Command::new(env!("CARGO_BIN_EXE_neupims-sim"))
            .args([figure, "--reports-dir", &reports])
            .output()
            .expect("the CLI binary runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{figure} failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            stdout.contains(&format!("## Eval — suite {figure} @")),
            "{stdout}"
        );
        assert!(stdout.contains("verdict: pass"), "{stdout}");
    }
}

/// `serve` builds one replica, so a `--backend` or `--scheduler` list
/// (which `fleet` cycles over its replicas) or a replica count other than
/// 1 is an error, not a silent first pick.
#[test]
fn serve_rejects_name_lists() {
    for (flag, list) in [
        ("--backend", "neupims,gpu"),
        ("--scheduler", "lump,chunked"),
        ("--replicas", "2"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_neupims-sim"))
            .args(["serve", "--requests", "4", flag, list])
            .output()
            .expect("the CLI binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag}: {stderr}");
        assert!(stderr.contains(list), "{flag}: {stderr}");
        assert!(out.stdout.is_empty(), "{flag} printed a report");
    }
}

/// Non-finite or non-positive `--tenants` weights and SLO targets,
/// zero counts, non-finite rates and bandwidths, shared flags the
/// command would ignore, and settings the system cannot honour (an
/// autoscale floor above the replica table, a TP degree above the
/// model's attention heads, a `--policy` the orchestrator would not
/// read) exit with an error naming the field before any report: a zero
/// is never clamped to 1, nor a floor to the table. Tenant fields are
/// named by their `[[scenario.tenant]]` keys, whose rules they share.
#[test]
fn hostile_tenants_are_rejected_by_field() {
    let tenants = |spec| vec!["fleet", "--requests", "4", "--tenants", spec];
    for (args, field) in [
        (tenants("a:nan:1"), "\"weight\""),
        (tenants("a:inf:1"), "\"weight\""),
        (tenants("a:-1:1"), "\"weight\""),
        // Each weight finite, their sum not: every share would read 0.
        (tenants("a:1e308:1,b:1e308:1"), "\"weight\""),
        (tenants("a:1:256"), "\"priority\""),
        (tenants("a:1:1:nan:5"), "\"slo-ttft-ms\""),
        (tenants("a:1:1:-5:5"), "\"slo-ttft-ms\""),
        (tenants("a:1:1:5:inf"), "\"slo-tpot-ms\""),
        (
            vec!["serve", "--requests", "4", "--max-batch", "0"],
            "--max-batch",
        ),
        (
            vec!["sweep", "--batch", "64", "--samples", "0"],
            "--samples",
        ),
        (vec!["sweep", "--samples", "1", "--batch", "0"], "--batch"),
        (vec!["serve", "--slo-ttft-ms", "inf"], "--slo-ttft-ms"),
        (vec!["serve", "--swap-gbps", "inf"], "--swap-gbps"),
        (vec!["fleet", "--link-gbps", "inf"], "--link-gbps"),
        (vec!["serve", "--rate", "inf"], "--rate"),
        (vec!["serve", "--requests", "0"], "--requests"),
        (vec!["eval", "smoke", "--backend", "gpu"], "--backend"),
        (vec!["fig12", "--tp", "2"], "--tp"),
        (vec!["all", "--samples", "3"], "--samples"),
        (
            vec!["calibrate", "--backend", "gpu", "--tp", "2"],
            "--backend",
        ),
        (vec!["fig14", "--model", "gpt3-7b"], "--model"),
        (vec!["area", "--seed", "7"], "--seed"),
        (vec!["drift", "--tp", "2"], "--tp"),
        (vec!["sweep", "--seed", "7"], "--seed"),
        (vec!["sweep", "--requests", "8"], "--requests"),
        (vec!["sweep", "--policy", "jsq"], "--policy"),
        (vec!["serve", "--batch", "64"], "--batch"),
        (vec!["fleet", "--samples", "3"], "--samples"),
        (
            vec![
                "fleet",
                "--backend",
                "gpu",
                "--replicas",
                "2",
                "--min-replicas",
                "9",
            ],
            "\"min-replicas\"",
        ),
        (
            vec![
                "serve",
                "--backend",
                "neupims",
                "--tp",
                "1000",
                "--requests",
                "4",
            ],
            "TP=1000",
        ),
        (
            vec!["fleet", "--policy", "kv-aware", "--router", "capability"],
            "--policy",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_neupims-sim"))
            .args(&args)
            .output()
            .expect("the CLI binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(field), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
    }
}

/// Options a command never reads are errors naming the option, before
/// any output and before any side effect (a `--memo-cache` directory is
/// never created), and an oversized warm batch or request count is an
/// error naming `--batch` or `--requests` before calibration, never an
/// aborted allocation.
#[test]
fn options_a_command_never_reads_are_rejected() {
    let cache = format!("{}/unread-memo-cache", env!("CARGO_TARGET_TMPDIR"));
    for (args, option) in [
        (vec!["calibrate", "--tolerance", "0.5"], "--tolerance"),
        (vec!["calibrate", "--jobs", "3"], "--jobs"),
        (vec!["calibrate", "--memo-cache", &cache], "--memo-cache"),
        (vec!["sweep", "--memo-cache", &cache], "--memo-cache"),
        (vec!["sweep", "--jobs", "2"], "--jobs"),
        (vec!["sweep", "--tenants", "a:1:1"], "--tenants"),
        (vec!["sweep", "--backend", "neupims,gpu"], "--backend"),
        (vec!["serve", "--quick"], "--quick"),
        (vec!["fleet", "--reports-dir", "x"], "--reports-dir"),
        (vec!["fleet", "--tolerance", "0.2"], "--tolerance"),
        (vec!["eval", "smoke", "--tolerance", "0.2"], "--tolerance"),
        (vec!["fig13", "--list"], "--list"),
        (vec!["all", "--quick"], "--quick"),
        (vec!["drift", "--jobs", "2"], "--jobs"),
        (vec!["fig14", "--reports-dir", "x"], "--reports-dir"),
        (
            vec!["sweep", "--batch", "5000000000", "--samples", "1"],
            "--batch",
        ),
        (vec!["serve", "--requests", "5000000000"], "--requests"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_neupims-sim"))
            .args(&args)
            .output()
            .expect("the CLI binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(option), "{args:?}: {stderr}");
        assert!(!stderr.contains("calibrating"), "{args:?} calibrated");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
    }
    assert!(
        !std::path::Path::new(&cache).exists(),
        "a rejected --memo-cache created {cache}"
    );
}
