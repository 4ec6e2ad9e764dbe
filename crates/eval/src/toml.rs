//! A minimal TOML reader for scenario specs.
//!
//! The build environment vendors all third-party crates ([`shims/`] are
//! no-op stand-ins), so the eval harness parses its own specs. This is a
//! deliberate subset of TOML 1.0 — exactly the grammar the suite files
//! under `scenarios/` use:
//!
//! * `key = value` pairs with bare or double-quoted keys;
//! * values: basic strings, integers, floats, booleans, and single-line
//!   arrays of those;
//! * `[table]` and dotted `[table.subtable]` headers;
//! * `[[array-of-tables]]` headers (dotted forms allowed, where every
//!   prefix segment names a table);
//! * `#` comments and blank lines.
//!
//! Unsupported TOML (multi-line strings, inline tables, dates, dotted
//! *keys*) is rejected with a line-numbered [`TomlError`] rather than
//! silently misread.
//!
//! [`shims/`]: https://github.com/neupims-sim/neupims-sim

use std::collections::BTreeMap;
use std::fmt;

/// A parsed TOML value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A basic string.
    Str(String),
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// A single-line array.
    Array(Vec<Value>),
    /// A table (`[header]`, `[[header]]` element, or the document root).
    Table(Table),
}

/// A TOML table: ordered key → value map.
pub type Table = BTreeMap<String, Value>;

impl Value {
    /// The value as a table, if it is one.
    pub fn as_table(&self) -> Option<&Table> {
        match self {
            Value::Table(t) => Some(t),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a float (integers coerce), if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// A short type label for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Bool(_) => "boolean",
            Value::Array(_) => "array",
            Value::Table(_) => "table",
        }
    }
}

/// A parse failure, with the 1-based line it occurred on.
#[derive(Debug, Clone, PartialEq)]
pub struct TomlError {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for TomlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TOML line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TomlError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, TomlError> {
    Err(TomlError {
        line,
        message: message.into(),
    })
}

/// Parses a TOML document into its root table.
///
/// # Errors
///
/// Returns a line-numbered [`TomlError`] on any syntax outside the
/// supported subset (see the module docs).
pub fn parse(text: &str) -> Result<Table, TomlError> {
    let mut root = Table::new();
    // Path of the table the next `key = value` lands in; empty = root. An
    // array-of-tables segment always resolves to its *last* element.
    let mut current: Vec<String> = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix("[[") {
            let Some(header) = header.strip_suffix("]]") else {
                return err(line_no, "unterminated [[header]]");
            };
            current = parse_header_path(header, line_no)?;
            push_array_element(&mut root, &current, line_no)?;
        } else if let Some(header) = line.strip_prefix('[') {
            let Some(header) = header.strip_suffix(']') else {
                return err(line_no, "unterminated [header]");
            };
            current = parse_header_path(header, line_no)?;
            // Materialize the table so empty sections still exist.
            resolve_table(&mut root, &current, line_no)?;
        } else {
            let Some(eq) = find_unquoted(line, '=') else {
                return err(line_no, format!("expected `key = value`, got {line:?}"));
            };
            let key = parse_key(line[..eq].trim(), line_no)?;
            let value = parse_value(line[eq + 1..].trim(), line_no, 0)?;
            let table = resolve_table(&mut root, &current, line_no)?;
            if table.insert(key.clone(), value).is_some() {
                return err(line_no, format!("duplicate key {key:?}"));
            }
        }
    }
    Ok(root)
}

/// Reads one command-line value as TOML reads a value (`7`, `2.5`, `inf`,
/// `true`, `"quoted"`), and anything else, such as a bare word or a comma
/// list, as a string.
pub fn parse_scalar(text: &str) -> Value {
    parse_value(text.trim(), 0, 0).unwrap_or_else(|_| Value::Str(text.to_owned()))
}

/// Strips a `#` comment, respecting basic strings.
fn strip_comment(line: &str) -> &str {
    match find_unquoted(line, '#') {
        Some(pos) => &line[..pos],
        None => line,
    }
}

/// Byte position of the first `target` outside double quotes.
fn find_unquoted(line: &str, target: char) -> Option<usize> {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if in_str {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
        } else if c == '"' {
            in_str = true;
        } else if c == target {
            return Some(i);
        }
    }
    None
}

fn parse_key(raw: &str, line: usize) -> Result<String, TomlError> {
    if let Some(stripped) = raw.strip_prefix('"') {
        let Some(inner) = stripped.strip_suffix('"') else {
            return err(line, "unterminated quoted key");
        };
        return Ok(inner.to_owned());
    }
    if raw.is_empty()
        || !raw
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
    {
        return err(line, format!("invalid bare key {raw:?}"));
    }
    Ok(raw.to_owned())
}

fn parse_header_path(header: &str, line: usize) -> Result<Vec<String>, TomlError> {
    header
        .split('.')
        .map(|seg| parse_key(seg.trim(), line))
        .collect()
}

/// Walks (creating as needed) to the table at `path`. An
/// array-of-tables segment resolves to its *last* element, so headers and
/// keys written after `[[x]]` land in the element that header opened.
fn resolve_table<'a>(
    root: &'a mut Table,
    path: &[String],
    line: usize,
) -> Result<&'a mut Table, TomlError> {
    let mut table = root;
    for seg in path {
        let entry = table
            .entry(seg.clone())
            .or_insert_with(|| Value::Table(Table::new()));
        table = match entry {
            Value::Table(t) => t,
            Value::Array(items) => match items.last_mut() {
                Some(Value::Table(t)) => t,
                _ => return err(line, format!("{seg:?} is not an array of tables")),
            },
            other => {
                return err(
                    line,
                    format!("{seg:?} already holds a {}", other.type_name()),
                )
            }
        };
    }
    Ok(table)
}

/// Appends a fresh element to the array-of-tables at `path`.
fn push_array_element(root: &mut Table, path: &[String], line: usize) -> Result<(), TomlError> {
    let (tail, prefix) = path.split_last().expect("header paths are non-empty");
    let parent = resolve_table(root, prefix, line)?;
    let entry = parent
        .entry(tail.clone())
        .or_insert_with(|| Value::Array(Vec::new()));
    match entry {
        Value::Array(items) => {
            items.push(Value::Table(Table::new()));
            Ok(())
        }
        other => err(
            line,
            format!("[[{tail}]] conflicts with existing {}", other.type_name()),
        ),
    }
}

/// Deepest array nesting a value may have. The suite schema needs two
/// levels; the cap keeps the recursion below from overflowing the stack
/// on hostile input.
const MAX_ARRAY_DEPTH: usize = 4;

/// Parses one value nested inside `depth` arrays.
fn parse_value(raw: &str, line: usize, depth: usize) -> Result<Value, TomlError> {
    if raw.is_empty() {
        return err(line, "missing value");
    }
    if let Some(stripped) = raw.strip_prefix('"') {
        let Some(inner) = stripped.strip_suffix('"') else {
            return err(line, "unterminated string");
        };
        return Ok(Value::Str(unescape(inner, line)?));
    }
    if let Some(inner) = raw.strip_prefix('[') {
        if depth == MAX_ARRAY_DEPTH {
            return err(
                line,
                format!("arrays nest deeper than {MAX_ARRAY_DEPTH} levels"),
            );
        }
        let Some(inner) = inner.strip_suffix(']') else {
            return err(line, "unterminated array (arrays must be single-line)");
        };
        let mut items = Vec::new();
        for part in split_top_level(inner) {
            let part = part.trim();
            if !part.is_empty() {
                items.push(parse_value(part, line, depth + 1)?);
            }
        }
        return Ok(Value::Array(items));
    }
    match raw {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    let plain = raw.replace('_', "");
    if let Ok(i) = plain.parse::<i64>() {
        return Ok(Value::Int(i));
    }
    if let Ok(f) = plain.parse::<f64>() {
        return Ok(Value::Float(f));
    }
    err(line, format!("unrecognized value {raw:?}"))
}

/// Splits an array body on commas outside strings and nested brackets.
fn split_top_level(body: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut in_str = false;
    let mut start = 0usize;
    for (i, c) in body.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth = depth.saturating_sub(1),
            ',' if !in_str && depth == 0 => {
                parts.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&body[start..]);
    parts
}

fn unescape(s: &str, line: usize) -> Result<String, TomlError> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            other => return err(line, format!("unsupported escape \\{other:?}")),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_spec_shape() {
        let doc = r#"
# a suite
[suite]
name = "smoke"          # trailing comment
description = "fast checks"

[[scenario]]
name = "serve-1"
requests = 48
rate = 2.5
quick = true
batches = [64, 128, 256]

[scenario.arrival]
process = "bursty"
burst-size = 8

[[scenario.expect]]
metric = "tokens_per_sec"
min = 1_000.5

[[scenario]]
name = "serve-2"
"#;
        let t = parse(doc).unwrap();
        let suite = t["suite"].as_table().unwrap();
        assert_eq!(suite["name"].as_str(), Some("smoke"));
        let scenarios = t["scenario"].as_array().unwrap();
        assert_eq!(scenarios.len(), 2);
        let s0 = scenarios[0].as_table().unwrap();
        assert_eq!(s0["requests"], Value::Int(48));
        assert_eq!(s0["rate"].as_f64(), Some(2.5));
        assert_eq!(s0["quick"], Value::Bool(true));
        assert_eq!(s0["batches"].as_array().unwrap().len(), 3);
        let arrival = s0["arrival"].as_table().unwrap();
        assert_eq!(arrival["process"].as_str(), Some("bursty"));
        assert_eq!(arrival["burst-size"], Value::Int(8));
        let expects = s0["expect"].as_array().unwrap();
        assert_eq!(expects.len(), 1);
        assert_eq!(expects[0].as_table().unwrap()["min"].as_f64(), Some(1000.5));
        assert_eq!(
            scenarios[1].as_table().unwrap()["name"].as_str(),
            Some("serve-2")
        );
    }

    #[test]
    fn dotted_headers_nest() {
        let t = parse("[a.b]\nx = 1\n[a.c]\ny = 2.0\n").unwrap();
        let a = t["a"].as_table().unwrap();
        assert_eq!(a["b"].as_table().unwrap()["x"], Value::Int(1));
        assert_eq!(a["c"].as_table().unwrap()["y"].as_f64(), Some(2.0));
    }

    #[test]
    fn strings_keep_hashes_and_escapes() {
        let t = parse(r#"k = "a # not a comment \"q\"""#).unwrap();
        assert_eq!(t["k"].as_str(), Some(r#"a # not a comment "q""#));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse("ok = 1\nbroken").unwrap_err();
        assert_eq!(e.line, 2);
        let e = parse("x = 1\nx = 2").unwrap_err();
        assert!(e.message.contains("duplicate"), "{e}");
        let e = parse("x = @nope").unwrap_err();
        assert!(e.message.contains("unrecognized"), "{e}");
    }

    #[test]
    fn deep_array_nesting_is_a_line_numbered_error() {
        let t = parse("x = [[1, 2], [3]]").unwrap();
        assert_eq!(t["x"].as_array().unwrap().len(), 2);
        let ok = format!(
            "x = {}1{}",
            "[".repeat(MAX_ARRAY_DEPTH),
            "]".repeat(MAX_ARRAY_DEPTH)
        );
        assert!(parse(&ok).is_ok());
        // 30,000 levels used to overflow the stack.
        let deep = format!("a = 1\nx = {}{}", "[".repeat(30_000), "]".repeat(30_000));
        let e = parse(&deep).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("nest deeper"), "{e}");
    }

    #[test]
    fn negative_and_underscored_numbers() {
        let t = parse("a = -3\nb = 1_000_000\nc = -0.5").unwrap();
        assert_eq!(t["a"], Value::Int(-3));
        assert_eq!(t["b"], Value::Int(1_000_000));
        assert_eq!(t["c"].as_f64(), Some(-0.5));
    }

    #[test]
    fn array_of_tables_under_a_table() {
        let doc = "[[scenario]]\nname = \"s\"\n[[scenario.expect]]\nmetric = \"m\"\n[[scenario.expect]]\nmetric = \"n\"\n";
        let t = parse(doc).unwrap();
        let s0 = t["scenario"].as_array().unwrap()[0].as_table().unwrap();
        let expects = s0["expect"].as_array().unwrap();
        assert_eq!(expects.len(), 2);
        assert_eq!(expects[1].as_table().unwrap()["metric"].as_str(), Some("n"));
    }
}
