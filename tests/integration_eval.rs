//! Integration tests of the eval harness: the shipped suites run green,
//! the fig12 suite reproduces the Figure 12 ordering, the fig12 and
//! fig13 suites catch a broken NeuPIMs or ablation arm, every suite is
//! documented, seeds pin runs bit-identical, and reports persist with
//! the spec'd JSON shape.

use neupims_eval::{
    load_suite, run_eval_with_opts, run_suite_with_opts, score_suite, store_report, verdict,
    CheckStatus, EvalOverrides, EvalReport, ScenarioRun, SuiteSpec, SUITE_NAMES,
};

/// Runs `suite` under the default overrides, or the seed `seed`.
fn eval_report(
    suite: &SuiteSpec,
    seed: Option<u64>,
) -> Result<EvalReport, neupims_eval::EvalError> {
    let opts = EvalOverrides {
        seed,
        ..Default::default()
    };
    run_eval_with_opts(suite, &opts)
}

/// Runs `suite`'s scenarios under the default overrides, or the seed
/// `seed`.
fn run_suite(
    suite: &SuiteSpec,
    seed: Option<u64>,
) -> Result<Vec<ScenarioRun>, neupims_eval::EvalError> {
    let opts = EvalOverrides {
        seed,
        ..Default::default()
    };
    run_suite_with_opts(suite, &opts)
}

/// The CI gate: the shipped smoke suite passes every golden check.
#[test]
fn smoke_suite_is_green() {
    let suite = load_suite("smoke").expect("smoke suite loads");
    let report = eval_report(&suite, None).expect("smoke suite runs");
    let (_, _, fail) = report.counts();
    assert_eq!(
        fail,
        0,
        "smoke suite has fail-severity violations:\n{}",
        report.render()
    );
}

/// The acceptance criterion: `eval fig12` reproduces the paper's
/// NeuPIMs-vs-baseline throughput ordering within the spec'd tolerances.
#[test]
fn fig12_suite_reproduces_the_throughput_ordering() {
    let suite = load_suite("fig12").expect("fig12 suite loads");
    let runs = run_suite(&suite, None).expect("fig12 suite runs");
    let tps = |name: &str| {
        runs.iter()
            .find(|r| r.name == name)
            .and_then(|r| r.metric("tokens_per_sec"))
            .unwrap_or_else(|| panic!("scenario {name} missing tokens_per_sec"))
    };
    // Figure 12 ordering on ShareGPT at B=256: NeuPIMs > NPU+PIM >
    // {GPU-only, NPU-only}.
    let neupims = tps("sharegpt-neupims");
    let npu_pim = tps("sharegpt-npu-pim");
    assert!(neupims > npu_pim && npu_pim > tps("sharegpt-gpu"));
    assert!(neupims > tps("sharegpt-npu-only"));
    // And the improvement factor sits in the paper's band.
    let ratio = neupims / npu_pim;
    assert!(
        (1.4..=2.3).contains(&ratio),
        "NeuPIMs/NPU+PIM = {ratio:.2}, expected ~1.6x"
    );
    // Every spec'd golden check agrees.
    let checks = score_suite(&suite, &runs);
    assert_eq!(
        verdict(&checks),
        CheckStatus::Pass,
        "fig12 golden checks failed: {checks:#?}"
    );
}

/// The remaining shipped suites parse, run, and grade without
/// fail-severity violations.
#[test]
fn all_shipped_suites_are_green() {
    for name in SUITE_NAMES {
        let suite = load_suite(name).unwrap_or_else(|e| panic!("suite {name}: {e}"));
        let report = eval_report(&suite, None).unwrap_or_else(|e| panic!("suite {name}: {e}"));
        let (_, _, fail) = report.counts();
        assert_eq!(fail, 0, "suite {name} failed:\n{}", report.render());
    }
}

/// Mutation checks: the fig13 suite fails when an ablation arm silently
/// loses its technique (the SBI arm priced without SBI, or the GMLBP arm
/// without GMLBP), and the fig12 suite fails when its NeuPIMs arms are
/// priced as naive NPU+PIM. A paper-anchored compare catches each, not
/// only the measured goldens.
#[test]
fn fig13_suite_fails_when_an_arm_loses_its_technique() {
    for (suite_name, arm, without) in [
        ("fig13", "neupims-drb-gmlbp-sbi", "neupims-drb-gmlbp"),
        ("fig13", "neupims-drb-gmlbp", "neupims-drb"),
        ("fig12", "neupims", "naive"),
    ] {
        let mut suite = load_suite(suite_name).expect("suite loads");
        for scenario in suite.scenarios.iter_mut() {
            if scenario.system.backend == arm {
                scenario.system.backend = without.to_owned();
            }
        }
        let report = eval_report(&suite, None).expect("suite runs");
        let arm = format!("{suite_name}: {arm} as {without}");
        assert_eq!(report.verdict(), CheckStatus::Fail, "{arm}");
        assert!(
            report
                .checks
                .iter()
                .any(|c| c.scenario.starts_with("(compare)") && c.status == CheckStatus::Fail),
            "{arm}: no compare caught it:\n{}",
            report.render()
        );
    }
}

/// Every shipped suite has a row in docs/EVAL.md's shipped-suites table.
#[test]
fn every_shipped_suite_is_documented() {
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/docs/EVAL.md"))
        .expect("docs/EVAL.md exists");
    let section = doc
        .split("## Shipped suites")
        .nth(1)
        .expect("docs/EVAL.md has a Shipped suites section");
    let rows: Vec<&str> = section
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .collect();
    for name in SUITE_NAMES {
        let row = format!("| `{name}` |");
        assert!(
            rows.iter().any(|r| r.starts_with(&row)),
            "suite {name} is missing from docs/EVAL.md's shipped-suites table"
        );
    }
}

/// `--seed` pins workload generation: two same-seed runs of a serving
/// suite produce identical metrics, and a different seed moves them.
#[test]
fn seeded_eval_runs_are_deterministic() {
    let suite = load_suite("smoke").expect("smoke suite loads");
    let a = run_suite(&suite, Some(0xD5)).unwrap();
    let b = run_suite(&suite, Some(0xD5)).unwrap();
    assert_eq!(a, b, "same seed must reproduce bit-identical metrics");
    let c = run_suite(&suite, Some(0xD6)).unwrap();
    let serving = |runs: &[neupims_eval::ScenarioRun]| {
        runs.iter()
            .find(|r| r.kind == "serving")
            .expect("smoke has a serving scenario")
            .metrics
            .clone()
    };
    assert_ne!(
        serving(&a),
        serving(&c),
        "a different seed should shift the serving workload"
    );
}

/// Reports persist under `<dir>/<suite>/<rev>.json` with the structured
/// shape CI consumes, and `latest.json` aliases the same content.
#[test]
fn eval_reports_persist_with_the_documented_shape() {
    let suite = SuiteSpec::parse(
        r#"
[suite]
name = "store-shape"
description = "integration store test"

[[scenario]]
name = "thr"
kind = "throughput"
batch = 32
samples = 1

[[scenario.expect]]
metric = "tokens_per_sec"
min = 1.0
"#,
    )
    .unwrap();
    let mut report: EvalReport = eval_report(&suite, Some(3)).unwrap();
    report.rev = "testrev".to_owned();
    let dir = std::env::temp_dir().join(format!("neupims-eval-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (keyed, latest) = store_report(&dir, &report).unwrap();
    assert!(keyed.ends_with("store-shape/testrev.json"));
    let text = std::fs::read_to_string(&keyed).unwrap();
    assert_eq!(text, std::fs::read_to_string(&latest).unwrap());
    for needle in [
        "\"suite\": \"store-shape\"",
        "\"rev\": \"testrev\"",
        "\"seed_override\": 3",
        "\"verdict\": \"pass\"",
        "\"scenarios\":",
        "\"checks\":",
        "\"tokens_per_sec\":",
    ] {
        assert!(
            text.contains(needle),
            "report JSON missing {needle}:\n{text}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Autoscale names parse case-insensitively, so the static floor (every
/// slot committed from the start) must not depend on the spelling either:
/// `STATIC` once fell to a floor of one and paid three warmups.
#[test]
fn autoscale_spelling_never_changes_the_static_floor() {
    let scenario = |name: &str, autoscale: &str| {
        format!(
            "[[scenario]]\nname = \"{name}\"\nrequests = 24\nseed = 3\nreplicas = 4\n\
             backend = \"gpu\"\nmax-batch = 8\nrate = 6.0\noutput-cap = 16\n\
             router = \"load\"\nautoscale = \"{autoscale}\"\n"
        )
    };
    let text = format!(
        "[suite]\nname = \"spelling\"\n{}{}",
        scenario("lower", "static"),
        scenario("upper", "STATIC")
    );
    let runs = run_suite(&SuiteSpec::parse(&text).unwrap(), None).unwrap();
    assert_eq!(runs[0].metric("warmups"), Some(0.0));
    assert_eq!(runs[0].metrics, runs[1].metrics);
}

/// A spec'd golden violation is a fail verdict, not a run error — and
/// warn severity downgrades it.
#[test]
fn golden_violations_grade_not_crash() {
    let text = r#"
[suite]
name = "violating"

[[scenario]]
name = "thr"
kind = "throughput"
batch = 32
samples = 1

[[scenario.expect]]
metric = "tokens_per_sec"
max = 0.5

[[scenario.expect]]
metric = "tokens_per_sec"
max = 0.5
severity = "warn"
"#;
    let suite = SuiteSpec::parse(text).unwrap();
    let report = eval_report(&suite, None).unwrap();
    assert_eq!(report.verdict(), CheckStatus::Fail);
    let (pass, warn, fail) = report.counts();
    assert_eq!((pass, warn, fail), (0, 1, 1));
}
