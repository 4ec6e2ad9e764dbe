//! Scenario engine and figure-level eval harness.
//!
//! `neupims-sim eval <suite>` runs a declarative TOML **suite** of
//! scenarios against the simulator and grades the results against golden
//! expectations. The crate is split along the task/runner/scorer/report
//! boundary:
//!
//! * [`spec`] — the typed suite/scenario schema, parsed from TOML by the
//!   vendored [`toml`] subset parser (the workspace's `serde` shim is a
//!   no-op, so both directions are hand-rolled);
//! * [`runner`] — executes scenarios: serving runs through the fleet or
//!   orchestrator [`neupims_core::system::SystemSpec::build`] makes, over
//!   workloads generated by [`neupims_workload::scenario`], warm-batch
//!   throughput through
//!   [`neupims_core::system::SystemSpec::warm_means`] (the Figure 12 /
//!   Table 3 methodology);
//! * [`scorer`] — grades `[[scenario.expect]]` and `[[compare]]` blocks
//!   into pass/warn/fail [`CheckResult`]s;
//! * [`report`] — the structured [`EvalReport`] with JSON serialization
//!   (via [`json`]) and the human-readable stdout tables;
//! * [`store`] — persists reports under `reports/<suite>/<rev>.json`;
//! * [`suites`] — the shipped suite inventory ([`SUITE_NAMES`]),
//!   embedded from `scenarios/`.
//!
//! [`run_eval_with_opts`] ties the pieces together; see `docs/EVAL.md` for the
//! spec schema and suite-authoring guide.

#![warn(missing_docs)]

pub mod json;
pub mod report;
pub mod runner;
pub mod scorer;
pub mod spec;
pub mod store;
pub mod suites;
pub mod toml;

pub use report::{render_metrics, EvalReport};
pub use runner::{run_suite_with_opts, run_system, EvalError, EvalOverrides, Metrics, ScenarioRun};
pub use scorer::{score_suite, verdict, CheckResult, CheckStatus};
pub use spec::{
    Bound, CompareSpec, Expectation, ScenarioKind, ScenarioSpec, Settings, Severity, SpecError,
    SuiteSpec, SystemSpec, WorkloadSpec, ORCHESTRATION_KEYS, SHARED_KEYS,
};
pub use store::{resolve_rev, store_report, unix_seconds};
pub use suites::{builtin_description, builtin_suite, load_suite, SUITE_NAMES};

/// Runs a parsed suite end to end under `opts` (seed, serving worker
/// count, cost-model override, and the persistent replay cache directory
/// (the CLI's `--memo-cache`) trace-priced scenarios share): execute,
/// score, and assemble the [`EvalReport`] (not yet persisted — callers
/// decide where, see [`store::store_report`]). The worker count never
/// changes results — only wall-clock — so reports produced under any
/// `jobs` compare bit-for-bit given the same seed.
///
/// # Errors
///
/// Returns [`EvalError`] when a scenario fails to *run*; golden-check
/// violations are recorded in the report's checks, not raised as errors.
pub fn run_eval_with_opts(
    suite: &SuiteSpec,
    opts: &EvalOverrides,
) -> Result<EvalReport, EvalError> {
    let scenarios = run_suite_with_opts(suite, opts)?;
    let checks = score_suite(suite, &scenarios);
    Ok(EvalReport {
        suite: suite.name.clone(),
        description: suite.description.clone(),
        rev: resolve_rev(),
        unix_seconds: unix_seconds(),
        seed_override: opts.seed,
        scenarios,
        checks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_over_an_inline_suite() {
        let suite = SuiteSpec::parse(
            r#"
[suite]
name = "inline"
description = "end-to-end wiring"

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
        let opts = EvalOverrides {
            seed: Some(1),
            ..Default::default()
        };
        let report = run_eval_with_opts(&suite, &opts).unwrap();
        assert_eq!(report.suite, "inline");
        assert_eq!(report.seed_override, Some(1));
        assert_eq!(report.verdict(), CheckStatus::Pass);
        assert!(report.to_json().contains("\"verdict\": \"pass\""));
    }
}
