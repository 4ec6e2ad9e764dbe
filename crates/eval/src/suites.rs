//! Suite discovery: the shipped suites (embedded at compile time from
//! `scenarios/`) plus on-disk spec files.

use crate::runner::EvalError;
use crate::spec::{SpecError, SuiteSpec};

/// Names of the shipped suites, in documentation order.
pub const SUITE_NAMES: &[&str] = &[
    "smoke",
    "fig6",
    "fig12",
    "fig13",
    "fig15",
    "table3",
    "table4",
    "pressure",
    "scaling",
    "orchestrator",
];

/// The embedded TOML text of a shipped suite, if `name` is one.
pub fn builtin_suite(name: &str) -> Option<&'static str> {
    match name {
        "smoke" => Some(include_str!("../../../scenarios/smoke.toml")),
        "fig6" => Some(include_str!("../../../scenarios/fig6.toml")),
        "fig12" => Some(include_str!("../../../scenarios/fig12.toml")),
        "fig13" => Some(include_str!("../../../scenarios/fig13.toml")),
        "fig15" => Some(include_str!("../../../scenarios/fig15.toml")),
        "table3" => Some(include_str!("../../../scenarios/table3.toml")),
        "table4" => Some(include_str!("../../../scenarios/table4.toml")),
        "pressure" => Some(include_str!("../../../scenarios/pressure.toml")),
        "scaling" => Some(include_str!("../../../scenarios/scaling.toml")),
        "orchestrator" => Some(include_str!("../../../scenarios/orchestrator.toml")),
        _ => None,
    }
}

/// One-line description of a shipped suite (parsed out of its spec).
pub fn builtin_description(name: &str) -> Option<String> {
    let text = builtin_suite(name)?;
    SuiteSpec::parse(text).ok().map(|s| s.description)
}

/// Loads a suite by name or path.
///
/// Resolution order:
/// 1. a path to a `.toml` file (absolute or relative) — so authored
///    suites run without a rebuild and edited copies of the shipped
///    suites take effect immediately;
/// 2. `scenarios/<name>.toml` under the current directory;
/// 3. the embedded copy of a shipped suite (so the binary works from any
///    working directory).
///
/// # Errors
///
/// Returns [`EvalError`] when nothing resolves or the spec fails to
/// parse.
pub fn load_suite(name: &str) -> Result<SuiteSpec, EvalError> {
    let candidates = [
        std::path::PathBuf::from(name),
        std::path::PathBuf::from("scenarios").join(format!("{name}.toml")),
    ];
    for path in &candidates {
        if path.extension().is_some_and(|e| e == "toml") && path.is_file() {
            let text = std::fs::read_to_string(path)?;
            return SuiteSpec::parse(&text)
                .map_err(|e| EvalError::Spec(SpecError(format!("{}: {}", path.display(), e.0))));
        }
    }
    if let Some(text) = builtin_suite(name) {
        return SuiteSpec::parse(text)
            .map_err(|e| EvalError::Spec(SpecError(format!("builtin {name}: {}", e.0))));
    }
    Err(EvalError::Spec(SpecError(format!(
        "unknown suite {name:?}: expected one of [{}], or a path to a .toml spec",
        SUITE_NAMES.join(", ")
    ))))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_shipped_suite_parses() {
        for name in SUITE_NAMES {
            let text = builtin_suite(name).unwrap();
            let suite = SuiteSpec::parse(text)
                .unwrap_or_else(|e| panic!("shipped suite {name} is invalid: {e}"));
            assert_eq!(&suite.name, name, "suite name must match its file stem");
            assert!(
                !suite.description.is_empty(),
                "shipped suite {name} needs a description"
            );
            assert!(
                suite.scenarios.iter().any(|s| !s.expects.is_empty()) || !suite.compares.is_empty(),
                "shipped suite {name} has no golden checks at all"
            );
        }
    }

    #[test]
    fn unknown_names_error_with_the_inventory() {
        let e = load_suite("nope").unwrap_err();
        assert!(e.to_string().contains("smoke"), "{e}");
    }
}
