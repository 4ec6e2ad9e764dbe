//! Ratchet against dead public surface: every `pub fn` under
//! `crates/*/src` must be named by non-test code other than its own
//! declaration. Non-test code is `crates/*/src` outside `#[cfg(test)]`
//! items and the files they declare, plus `src/`, `examples/` and
//! `benchmark/src/`; doc comments, comments and `use` re-exports do not
//! count, and neither does anything under a `tests/` directory. A public
//! function that only tests call is not part of the program: delete it,
//! move it into the tests, or list it in [`ALLOWED`] with the reason it
//! stays.

use std::collections::{HashMap, HashSet};
use std::path::{Component, Path, PathBuf};

/// `pub fn`s that no program calls and that stay anyway: each is the
/// independent reference a test compares the program against, or waits
/// on a change to the frozen `benchmark/` workspace.
const ALLOWED: &[(&str, &str, &str)] = &[
    (
        "crates/core/src/fleet.rs",
        "run_lockstep",
        "the lockstep reference the parity tests hold `FleetSim::run` to",
    ),
    (
        "crates/core/src/serving.rs",
        "with_records",
        "the per-request records the tests compare the sample columns against, \
         and `golden_serving`'s record digest",
    ),
    (
        "crates/llm/src/compiler.rs",
        "lower_batch",
        "the whole-block lowering the tests hold the per-layer op counts to",
    ),
    (
        "crates/npu/src/functional.rs",
        "matmul_ref",
        "the naive GEMM the tiled kernel is checked against",
    ),
    (
        "crates/npu/src/functional.rs",
        "matmul_tiled",
        "the systolic tiling, checked against `matmul_ref`",
    ),
    (
        "crates/npu/src/functional.rs",
        "softmax_ref",
        "the reference softmax of the attention-head check",
    ),
    (
        "crates/dram/src/trace.rs",
        "assert_protocol",
        "the independent timing checker (over `verify_protocol`) the controller's traces are held to",
    ),
    (
        "crates/types/src/config.rs",
        "weight_bytes_per_layer",
        "the f64 reference `weight_bytes_per_layer_dev` is checked against",
    ),
    (
        "crates/pim/src/command.rs",
        "encode",
        "goes with `decode` (whose name the decode pricers share) and `shims/bytes`, \
         which `benchmark/Cargo.lock` pins",
    ),
];

/// The identifiers of `text`: maximal runs of `[A-Za-z0-9_]` that do not
/// start with a digit.
fn identifiers(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| w.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'))
}

/// The names of the `pub fn`s `text` declares (`pub(crate)` and other
/// restricted visibilities are not public surface).
fn pub_fns(text: &str) -> Vec<&str> {
    text.lines()
        .filter_map(|line| {
            let line = line.trim_start().strip_prefix("pub ")?;
            line.strip_prefix("fn ")
                .or_else(|| line.strip_prefix("const fn "))
        })
        .filter_map(|rest| identifiers(rest).next())
        .collect()
}

/// `line` without a trailing `//` comment (one not inside a string).
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut prev = ' ';
    for (i, c) in line.char_indices() {
        match c {
            '"' if prev != '\\' => in_string = !in_string,
            '/' if !in_string && prev == '/' => return &line[..i - 1],
            _ => {}
        }
        prev = c;
    }
    line
}

/// The non-test code of a rustfmt-formatted source file: every
/// `#[cfg(test)]` item, comment and `use` declaration removed. Pushes
/// the modules declared `#[cfg(test)] mod name;` onto `test_mods`.
fn non_test_code(text: &str, test_mods: &mut Vec<String>) -> String {
    let mut out = String::new();
    let mut lines = text.lines();
    while let Some(line) = lines.next() {
        let trimmed = line.trim_start();
        if let Some(rest) = trimmed.strip_prefix("#[cfg(test)]") {
            let indent = &line[..line.len() - trimmed.len()];
            let close = format!("{indent}}}");
            let mut item = rest.trim();
            // Further attributes, then the item's header up to its body or `;`.
            while item.is_empty() || item.starts_with("#[") {
                item = lines.next().unwrap_or(";").trim();
            }
            loop {
                if item.ends_with('{') {
                    lines.by_ref().find(|l| l.trim_end() == close);
                    break;
                }
                if let Some(decl) = item.strip_suffix(';') {
                    if let Some(name) = decl.split_whitespace().skip_while(|w| *w != "mod").nth(1) {
                        test_mods.push(name.to_owned());
                    }
                    break;
                }
                item = lines.next().unwrap_or(";").trim();
            }
            continue;
        }
        if trimmed.starts_with("//") {
            continue;
        }
        let unqualified = trimmed
            .strip_prefix("pub ")
            .or_else(|| trimmed.strip_prefix("pub(crate) "))
            .unwrap_or(trimmed);
        if unqualified.starts_with("use ") {
            let mut last = line;
            while !strip_comment(last).trim_end().ends_with(';') {
                let Some(next) = lines.next() else { break };
                last = next;
            }
            continue;
        }
        out.push_str(strip_comment(line));
        out.push('\n');
    }
    out
}

fn has_dir(rel: &Path, name: &str) -> bool {
    let mut dirs = rel.components();
    dirs.next_back();
    dirs.any(|c| c == Component::Normal(name.as_ref()))
}

/// `crates/<name>/src/...`
fn in_crate_src(rel: &Path) -> bool {
    let mut parts = rel.components();
    parts.next() == Some(Component::Normal("crates".as_ref()))
        && parts.nth(1) == Some(Component::Normal("src".as_ref()))
}

/// The file a `mod name;` in `file` loads (`name.rs` beside a crate root
/// or `mod.rs`, `<stem>/name.rs` otherwise).
fn module_file(file: &Path, name: &str) -> PathBuf {
    let dir = file.parent().unwrap_or(Path::new(""));
    match file.file_stem().and_then(|s| s.to_str()) {
        Some("lib" | "main" | "mod") => dir.join(format!("{name}.rs")),
        Some(stem) => dir.join(stem).join(format!("{name}.rs")),
        None => dir.join(format!("{name}.rs")),
    }
}

struct Scan {
    /// How many `pub fn`s the non-test code declares.
    declared: usize,
    /// `(file, name)` of each `pub fn` that no non-test code names.
    dead: Vec<(PathBuf, String)>,
}

/// Finds the `pub fn`s under `crates/*/src` that no non-test code names.
/// `files` are `(path relative to the repository root, contents)`.
fn scan(files: &[(PathBuf, String)]) -> Scan {
    let mut test_files = HashSet::new();
    let mut code = Vec::new();
    for (rel, text) in files {
        let mut test_mods = Vec::new();
        code.push(non_test_code(text, &mut test_mods));
        test_files.extend(test_mods.iter().map(|m| module_file(rel, m)));
    }

    let mut named: HashMap<&str, usize> = HashMap::new();
    let mut declared: HashMap<&str, usize> = HashMap::new();
    let mut decls = Vec::new();
    for ((rel, _), code) in files.iter().zip(&code) {
        if has_dir(rel, "tests") || test_files.contains(rel) {
            continue;
        }
        for word in identifiers(code) {
            *named.entry(word).or_default() += 1;
        }
        if in_crate_src(rel) {
            for name in pub_fns(code) {
                *declared.entry(name).or_default() += 1;
                decls.push((rel.clone(), name));
            }
        }
    }
    let dead = decls
        .iter()
        .filter(|(_, name)| named[name] <= declared[name])
        .map(|(rel, name)| (rel.clone(), name.to_string()))
        .collect();
    Scan {
        declared: decls.len(),
        dead,
    }
}

/// Every `.rs` file under `dir`, skipping build output.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.unwrap().path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn every_pub_fn_has_a_non_test_caller() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut paths = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "benchmark"] {
        rust_files(&root.join(dir), &mut paths);
    }
    paths.sort();
    let files: Vec<(PathBuf, String)> = paths
        .iter()
        .map(|p| {
            let rel = p.strip_prefix(&root).unwrap().to_path_buf();
            (rel, std::fs::read_to_string(p).unwrap())
        })
        .collect();

    let scan = scan(&files);
    assert!(
        scan.declared >= 100,
        "the scan looks broken: only {} pub fns found",
        scan.declared
    );
    let allowed: HashSet<(PathBuf, &str)> = ALLOWED
        .iter()
        .map(|(file, name, _)| (PathBuf::from(file), *name))
        .collect();
    let dead: HashSet<(PathBuf, &str)> = scan
        .dead
        .iter()
        .map(|(file, name)| (file.clone(), name.as_str()))
        .collect();
    let mut unlisted: Vec<String> = scan
        .dead
        .iter()
        .filter(|(file, name)| !allowed.contains(&(file.clone(), name.as_str())))
        .map(|(file, name)| format!("{}: {name}", file.display()))
        .collect();
    unlisted.sort();
    let stale: Vec<String> = ALLOWED
        .iter()
        .filter(|(file, name, _)| !dead.contains(&(PathBuf::from(file), *name)))
        .map(|(file, name, _)| format!("{file}: {name}"))
        .collect();
    assert!(
        unlisted.is_empty() && stale.is_empty(),
        "pub fns that no non-test code calls: {unlisted:#?}\n\
         allowlisted pub fns that are gone or now have a non-test caller: {stale:#?}"
    );
}

#[test]
fn callers_in_tests_do_not_count() {
    let file = |path: &str, text: &str| (PathBuf::from(path), text.to_owned());
    let files = [
        file(
            "crates/a/src/lib.rs",
            "//! Crate docs name `in_docs` and `tested`.\n\
             pub use inner::reexported;\n\
             #[cfg(test)]\n\
             mod support;\n\
             /// `in_docs` is named here too.\n\
             pub fn in_docs() {}\n\
             pub fn tested() {}\n\
             pub fn reexported() {}\n\
             pub fn called() {}\n\
             pub fn by_sibling() {}\n\
             fn private() {\n    called(); // tested()\n}\n\
             #[cfg(test)]\n\
             mod tests {\n    #[test]\n    fn t() {\n        super::tested();\n    }\n}\n",
        ),
        file("crates/a/src/support.rs", "pub fn helper() { tested() }\n"),
        file(
            "crates/a/tests/t.rs",
            "fn t() { a::tested(); a::in_docs(); }\n",
        ),
        file("tests/top.rs", "fn t() { a::tested(); a::reexported(); }\n"),
        file("benchmark/tests/b.rs", "fn t() { a::tested(); }\n"),
        file("examples/e.rs", "fn main() { a::by_sibling(); }\n"),
    ];
    let scan = scan(&files);
    assert_eq!(scan.declared, 5, "support.rs is test-only");
    let dead: Vec<&str> = scan.dead.iter().map(|(_, n)| n.as_str()).collect();
    assert_eq!(dead, vec!["in_docs", "tested", "reexported"]);
}

#[test]
fn declarations_and_identifiers_split_like_rust() {
    let text = "    pub fn warm_means(&self) {}\n\
                pub(crate) fn hidden() {}\n\
                fn private() {}\n\
                pub const fn devices(&self) {}\n\
                pub fn generic<T>(t: T) {}";
    assert_eq!(pub_fns(text), vec!["warm_means", "devices", "generic"]);
    let words: Vec<_> = identifiers("a.b_c(1x, _d)::e2").collect();
    assert_eq!(words, vec!["a", "b_c", "_d", "e2"]);
    assert_eq!(strip_comment("f(); // g()"), "f(); ");
    assert_eq!(strip_comment(r#"f("a // b")"#), r#"f("a // b")"#);
}
