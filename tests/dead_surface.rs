//! Ratchet against dead public surface: every `pub fn` under
//! `crates/*/src` must be named in at least one other `.rs` file under
//! `crates/`, `src/`, `tests/`, `examples/` or `benchmark/`. A public
//! function that only its own file mentions is either private in all but
//! name or dead; make it private, test-only, or delete it.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};

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
        .filter_map(|line| line.trim_start().strip_prefix("pub fn "))
        .filter_map(|rest| identifiers(rest).next())
        .collect()
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
fn every_pub_fn_is_named_outside_its_file() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "benchmark"] {
        rust_files(&root.join(dir), &mut files);
    }
    files.sort();
    let texts: Vec<String> = files
        .iter()
        .map(|f| std::fs::read_to_string(f).unwrap())
        .collect();

    // Which files name each identifier.
    let mut named_in: HashMap<&str, HashSet<usize>> = HashMap::new();
    for (i, text) in texts.iter().enumerate() {
        for word in identifiers(text) {
            named_in.entry(word).or_default().insert(i);
        }
    }

    let crates = root.join("crates");
    let mut declared = 0;
    let mut dead = Vec::new();
    for (i, (file, text)) in files.iter().zip(&texts).enumerate() {
        let in_crate_src = file.strip_prefix(&crates).is_ok_and(|rel| {
            rel.components()
                .nth(1)
                .is_some_and(|c| c.as_os_str() == "src")
        });
        if !in_crate_src {
            continue;
        }
        for name in pub_fns(text) {
            declared += 1;
            if named_in[name].iter().all(|&j| j == i) {
                let rel = file.strip_prefix(&root).unwrap();
                dead.push(format!("{}: {name}", rel.display()));
            }
        }
    }
    assert!(
        declared >= 100,
        "the scan looks broken: only {declared} pub fns found"
    );
    assert!(
        dead.is_empty(),
        "pub fns named in no other file:\n  {}",
        dead.join("\n  ")
    );
}

#[test]
fn declarations_and_identifiers_split_like_rust() {
    let text = "    pub fn warm_means(&self) {}\n\
                pub(crate) fn hidden() {}\n\
                fn private() {}\n\
                pub fn generic<T>(t: T) {}";
    assert_eq!(pub_fns(text), vec!["warm_means", "generic"]);
    let words: Vec<_> = identifiers("a.b_c(1x, _d)::e2").collect();
    assert_eq!(words, vec!["a", "b_c", "_d", "e2"]);
}
