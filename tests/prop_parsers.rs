//! The hand-rolled suite parsers never panic: `neupims_eval::toml::parse`
//! and `SuiteSpec::parse` return `Ok` or `Err` on any text.
//!
//! Inputs are arbitrary bytes, token soup over TOML's punctuation, and
//! the shipped `scenarios/*.toml` suites mutated by byte flips, inserts,
//! deletions, truncations, duplicated spans and swapped values. Every
//! input is read as lossy UTF-8, as a suite file read from disk would be.
//! The CLI's flag parser has the same property in `neupims-cli`'s unit
//! tests.

use proptest::prelude::*;

use neupims_eval::{builtin_suite, toml, SuiteSpec, SUITE_NAMES};

/// Bytes that steer the TOML grammar: brackets, quotes, separators,
/// signs, digits, exponents, escapes and line breaks.
const TOKENS: &[u8] = b"[]{}=\"'#,.:\n\r\t -+_0123456789eEinfatrusl\\";

/// Parses `bytes` both ways; either may fail, neither may panic.
fn parse_both(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    let _ = toml::parse(&text);
    let _ = SuiteSpec::parse(&text);
}

/// A byte drawn half the time from [`TOKENS`], else from all 256.
fn pick_byte(choice: u64) -> u8 {
    if choice & 1 == 0 {
        TOKENS[(choice >> 1) as usize % TOKENS.len()]
    } else {
        (choice >> 1) as u8
    }
}

/// TOML values of every type, in and out of each key's range.
const VALUES: [&str; 20] = [
    "\"x\"",
    "\"\"",
    "\"gpu,neupims\"",
    "0",
    "-1",
    "7",
    "4294967296",
    "18446744073709551616",
    "2.5",
    "-0.0",
    "1e309",
    "inf",
    "-inf",
    "nan",
    "true",
    "[]",
    "[\"a\", 1]",
    "[[1]]",
    "{}",
    "{ a = 1 }",
];

/// Applies one edit of kind `kind % 6` to `bytes`, at a position and
/// span length drawn from `at` and `len`: a bit flip, an inserted byte,
/// a deleted span, a truncation, a duplicated span, or the value of the
/// first `key = value` at or after the position swapped for one of
/// [`VALUES`] (so a suite can parse as TOML and still break its schema).
fn mutate(bytes: &mut Vec<u8>, kind: u8, at: u64, len: u64, choice: u64) {
    let n = bytes.len();
    let at = if n == 0 { 0 } else { at as usize % n };
    // Spans up to 64 bytes: a key, a value, a line or a few.
    let span = (1 + len as usize % 64).min(n - at);
    match kind % 6 {
        0 if n > 0 => bytes[at] ^= 1 << (choice % 8),
        1 => bytes.insert(at, pick_byte(choice)),
        2 => {
            bytes.drain(at..at + span);
        }
        3 => bytes.truncate(at),
        4 => {
            let dup: Vec<u8> = bytes[at..at + span].to_vec();
            let to = if n == 0 { 0 } else { choice as usize % (n + 1) };
            bytes.splice(to..to, dup);
        }
        5 => {
            if let Some(eq) = bytes[at..].iter().position(|&b| b == b'=') {
                let from = at + eq + 1;
                let to = bytes[from..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(n, |eol| from + eol);
                let value = format!(" {}", VALUES[choice as usize % VALUES.len()]);
                bytes.splice(from..to, value.into_bytes());
            }
        }
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        parse_both(&bytes);
    }

    #[test]
    fn token_soup_never_panics(choices in prop::collection::vec(any::<u64>(), 0..512)) {
        let bytes: Vec<u8> = choices.into_iter().map(pick_byte).collect();
        parse_both(&bytes);
    }

    #[test]
    fn mutated_shipped_suites_never_panic(
        suite in 0usize..SUITE_NAMES.len(),
        edits in prop::collection::vec(
            (any::<u8>(), any::<u64>(), any::<u64>(), any::<u64>()),
            1..8,
        ),
    ) {
        let mut bytes = builtin_suite(SUITE_NAMES[suite]).expect("shipped suite").as_bytes().to_vec();
        for (kind, at, len, choice) in edits {
            mutate(&mut bytes, kind, at, len, choice);
        }
        parse_both(&bytes);
    }
}
