//! The structured eval report: JSON serialization and the stdout table.

use std::fmt::Write as _;

use crate::json::Json;
use crate::runner::{Metrics, ScenarioRun};
use crate::scorer::{verdict, CheckResult, CheckStatus};

/// A complete eval run: suite identity, every scenario's metrics, and
/// every graded check. This is what the store persists and CI consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalReport {
    /// Suite name.
    pub suite: String,
    /// Suite description.
    pub description: String,
    /// Source revision the run was taken at (short git hash, or an
    /// override / fallback — see [`crate::store::resolve_rev`]).
    pub rev: String,
    /// Unix timestamp of the run, seconds.
    pub unix_seconds: u64,
    /// Workload seed override, when the CLI forced one.
    pub seed_override: Option<u64>,
    /// Executed scenarios, in suite order.
    pub scenarios: Vec<ScenarioRun>,
    /// Graded checks, in suite order (expects first, then compares).
    pub checks: Vec<CheckResult>,
}

impl EvalReport {
    /// The suite verdict: the worst check status.
    pub fn verdict(&self) -> CheckStatus {
        verdict(&self.checks)
    }

    /// Serializes the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let scenarios = self
            .scenarios
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".into(), Json::str(&s.name)),
                    ("kind".into(), Json::str(s.kind)),
                    (
                        "metrics".into(),
                        Json::Obj(
                            s.metrics
                                .iter()
                                .map(|(k, v)| (k.clone(), Json::Num(*v)))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let checks = self
            .checks
            .iter()
            .map(|c| {
                Json::Obj(vec![
                    ("scenario".into(), Json::str(&c.scenario)),
                    ("metric".into(), Json::str(&c.metric)),
                    (
                        "observed".into(),
                        c.observed.map(Json::Num).unwrap_or(Json::Null),
                    ),
                    ("bound".into(), Json::str(c.bound.describe())),
                    ("severity".into(), Json::str(c.severity.name())),
                    ("status".into(), Json::str(c.status.name())),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("suite".into(), Json::str(&self.suite)),
            ("description".into(), Json::str(&self.description)),
            ("rev".into(), Json::str(&self.rev)),
            ("unix_seconds".into(), Json::int(self.unix_seconds)),
            (
                "seed_override".into(),
                self.seed_override.map(Json::int).unwrap_or(Json::Null),
            ),
            ("verdict".into(), Json::str(self.verdict().name())),
            ("scenarios".into(), Json::Arr(scenarios)),
            ("checks".into(), Json::Arr(checks)),
        ])
        .pretty()
    }

    /// Renders the human-readable result tables (GitHub-flavored
    /// markdown, matching the other CLI commands).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "\n## Eval — suite {} @ {} ({})\n",
            self.suite, self.rev, self.description
        );
        for s in &self.scenarios {
            out += &render_metrics(&format!("{} ({})", s.name, s.kind), &s.metrics);
        }
        let _ = writeln!(out, "### Checks\n");
        let _ = writeln!(out, "| scenario | metric | observed | expected | status |");
        let _ = writeln!(out, "|---|---|---:|---|---|");
        for c in &self.checks {
            let observed = match c.observed {
                Some(v) => format!("{v:.4}"),
                None => "(missing)".to_owned(),
            };
            let status = match c.status {
                CheckStatus::Pass => "pass",
                CheckStatus::Warn => "WARN",
                CheckStatus::Fail => "FAIL",
            };
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} |",
                c.scenario,
                c.metric,
                observed,
                c.bound.describe(),
                status
            );
        }
        let (pass, warn, fail) = self.counts();
        let _ = writeln!(
            out,
            "\nverdict: {} ({pass} pass, {warn} warn, {fail} fail)",
            self.verdict().name()
        );
        out
    }

    /// (pass, warn, fail) counts over the checks.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut pass = 0;
        let mut warn = 0;
        let mut fail = 0;
        for c in &self.checks {
            match c.status {
                CheckStatus::Pass => pass += 1,
                CheckStatus::Warn => warn += 1,
                CheckStatus::Fail => fail += 1,
            }
        }
        (pass, warn, fail)
    }
}

/// Renders one metric map as a `| metric | value |` table under a
/// `### {title}` header line, followed by a blank line: how the eval
/// report shows each scenario and how the CLI reports a serving run.
pub fn render_metrics(title: &str, metrics: &Metrics) -> String {
    let mut out = format!("### {title}\n\n| metric | value |\n|---|---:|\n");
    for (k, v) in metrics {
        let _ = writeln!(out, "| {k} | {v:.4} |");
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Bound, Severity};

    fn report() -> EvalReport {
        let mut metrics = Metrics::new();
        metrics.insert("tokens_per_sec".into(), 1234.5);
        EvalReport {
            suite: "smoke".into(),
            description: "fast sanity".into(),
            rev: "abc1234".into(),
            unix_seconds: 1_754_000_000,
            seed_override: Some(7),
            scenarios: vec![ScenarioRun {
                name: "thr".into(),
                kind: "throughput",
                metrics,
            }],
            checks: vec![CheckResult {
                scenario: "thr".into(),
                metric: "tokens_per_sec".into(),
                observed: Some(1234.5),
                bound: Bound::Min(1000.0),
                severity: Severity::Fail,
                status: CheckStatus::Pass,
            }],
        }
    }

    #[test]
    fn json_has_the_full_shape() {
        let j = report().to_json();
        assert!(j.contains("\"suite\": \"smoke\""));
        assert!(j.contains("\"rev\": \"abc1234\""));
        assert!(j.contains("\"seed_override\": 7"));
        assert!(j.contains("\"verdict\": \"pass\""));
        assert!(j.contains("\"tokens_per_sec\": 1234.5"));
        assert!(j.contains("\"status\": \"pass\""));
    }

    #[test]
    fn render_flags_failures() {
        let mut r = report();
        r.checks[0].status = CheckStatus::Fail;
        let text = r.render();
        assert!(text.contains("| FAIL |"));
        assert!(text.contains("verdict: fail"));
    }
}
