//! A strict, hand-rolled parser for the scenario DSL — a small YAML
//! subset with JSON-style inline lists.
//!
//! Grammar (line-oriented, two-space indentation, one nesting level):
//!
//! ```yaml
//! # comment
//! key: scalar
//! key: [scalar, scalar]     # inline list
//! section:                  # nested mapping
//!   key: scalar
//! ```
//!
//! The parser is deliberately strict, in the house style of
//! `tictac-store`'s record decoder: unknown keys, duplicate keys, missing
//! required fields, tabs, and malformed indentation are all hard errors
//! carrying the offending line number. There is no quoting, no multi-line
//! values, no anchors — scenario files stay diffable and greppable.

use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;

/// A parse error with its 1-based line number (0 = whole document).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line the error was detected on (0 for document-level
    /// errors such as a missing required section).
    pub line: usize,
    /// Human-readable description.
    pub msg: String,
}

impl ParseError {
    pub(crate) fn at(line: usize, msg: impl Into<String>) -> Self {
        Self {
            line,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "scenario: {}", self.msg)
        } else {
            write!(f, "scenario line {}: {}", self.line, self.msg)
        }
    }
}

impl Error for ParseError {}

/// A parsed value: a bare scalar or an inline list of bare scalars.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// A single unquoted token (`tac`, `4`, `0.5`, `results/runs.jsonl`).
    Scalar(String),
    /// A JSON-style inline list of unquoted tokens (`[1.0, 0.5]`).
    List(Vec<String>),
}

/// One `key: value` entry with its source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Entry {
    pub line: usize,
    pub key: String,
    pub value: Option<Value>,
    /// Entries nested under this key (non-empty only for section headers).
    pub children: Vec<Entry>,
}

/// Parses a document into its top-level entries.
pub(crate) fn parse_document(text: &str) -> Result<Vec<Entry>, ParseError> {
    let mut top: Vec<Entry> = Vec::new();
    let mut seen_top: BTreeSet<String> = BTreeSet::new();
    let mut seen_nested: BTreeSet<String> = BTreeSet::new();

    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        if raw.contains('\t') {
            return Err(ParseError::at(
                line_no,
                "tabs are not allowed; indent with two spaces",
            ));
        }
        let without_comment = strip_comment(raw);
        let trimmed = without_comment.trim_end();
        if trimmed.trim().is_empty() {
            continue;
        }
        let indent = trimmed.len() - trimmed.trim_start().len();
        let body = trimmed.trim_start();

        match indent {
            0 => {
                let (key, rest) = split_key(body, line_no)?;
                if !seen_top.insert(key.to_string()) {
                    return Err(ParseError::at(line_no, format!("duplicate key `{key}`")));
                }
                seen_nested.clear();
                let value = parse_value(rest, line_no)?;
                top.push(Entry {
                    line: line_no,
                    key: key.to_string(),
                    value,
                    children: Vec::new(),
                });
            }
            2 => {
                let parent = top.last_mut().ok_or_else(|| {
                    ParseError::at(line_no, "indented entry before any section header")
                })?;
                if parent.value.is_some() {
                    return Err(ParseError::at(
                        line_no,
                        format!(
                            "`{}` has a value and cannot also hold a section",
                            parent.key
                        ),
                    ));
                }
                let (key, rest) = split_key(body, line_no)?;
                if !seen_nested.insert(key.to_string()) {
                    return Err(ParseError::at(line_no, format!("duplicate key `{key}`")));
                }
                let value = parse_value(rest, line_no)?;
                if value.is_none() {
                    return Err(ParseError::at(
                        line_no,
                        format!("`{key}`: nested sections may not nest further"),
                    ));
                }
                parent.children.push(Entry {
                    line: line_no,
                    key: key.to_string(),
                    value,
                    children: Vec::new(),
                });
            }
            n => {
                return Err(ParseError::at(
                    line_no,
                    format!("indentation must be 0 or 2 spaces, found {n}"),
                ));
            }
        }
    }

    // A section header with no children and no value is an empty section —
    // reject it so a typo'd indent can't silently drop a whole block.
    for e in &top {
        if e.value.is_none() && e.children.is_empty() {
            return Err(ParseError::at(
                e.line,
                format!("section `{}` is empty", e.key),
            ));
        }
    }
    Ok(top)
}

/// Strips a `#` comment. The grammar has no quoting, so any `#` preceded
/// by start-of-line or whitespace begins a comment.
fn strip_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'#' && (i == 0 || bytes[i - 1].is_ascii_whitespace()) {
            return &line[..i];
        }
    }
    line
}

/// Splits `key: rest` (or a bare `key:` header), validating the key.
fn split_key(body: &str, line: usize) -> Result<(&str, &str), ParseError> {
    let Some(colon) = body.find(':') else {
        return Err(ParseError::at(
            line,
            format!("expected `key: value`, found `{body}`"),
        ));
    };
    let key = body[..colon].trim();
    if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        return Err(ParseError::at(line, format!("invalid key `{key}`")));
    }
    Ok((key, body[colon + 1..].trim()))
}

/// Parses the text after `key:` — empty (section header), a scalar, or an
/// inline list.
fn parse_value(rest: &str, line: usize) -> Result<Option<Value>, ParseError> {
    if rest.is_empty() {
        return Ok(None);
    }
    if let Some(inner) = rest.strip_prefix('[') {
        let Some(inner) = inner.strip_suffix(']') else {
            return Err(ParseError::at(
                line,
                "inline list is missing its closing `]`",
            ));
        };
        let items: Vec<String> = inner.split(',').map(|s| s.trim().to_string()).collect();
        if items.iter().any(String::is_empty) {
            return Err(ParseError::at(line, "inline list has an empty element"));
        }
        return Ok(Some(Value::List(items)));
    }
    if rest.contains('[') || rest.contains(']') || rest.contains(',') {
        return Err(ParseError::at(
            line,
            format!("malformed value `{rest}` (lists must be `[a, b, c]`)"),
        ));
    }
    Ok(Some(Value::Scalar(rest.to_string())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_sections_and_lists() {
        let doc = "\
# a comment
model: vgg_19
cluster:
  workers: 4   # trailing comment
  worker_speeds: [1.0, 0.5]
seed: [1, 2, 3]
";
        let top = parse_document(doc).unwrap();
        assert_eq!(top.len(), 3);
        assert_eq!(top[0].key, "model");
        assert_eq!(top[0].value, Some(Value::Scalar("vgg_19".into())));
        assert_eq!(top[1].key, "cluster");
        assert_eq!(top[1].children.len(), 2);
        assert_eq!(top[1].children[0].value, Some(Value::Scalar("4".into())));
        assert_eq!(
            top[1].children[1].value,
            Some(Value::List(vec!["1.0".into(), "0.5".into()]))
        );
        assert_eq!(
            top[2].value,
            Some(Value::List(vec!["1".into(), "2".into(), "3".into()]))
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        let cases: &[(&str, &str)] = &[
            ("model: a\nmodel: b\n", "duplicate key"),
            ("  workers: 4\n", "before any section header"),
            ("model: a\n  workers: 4\n", "cannot also hold a section"),
            ("cluster:\n   workers: 4\n", "indentation must be 0 or 2"),
            ("cluster:\n", "section `cluster` is empty"),
            ("model\n", "expected `key: value`"),
            ("se+ed: 1\n", "invalid key"),
            ("seed: [1, 2\n", "missing its closing"),
            ("seed: [1, , 2]\n", "empty element"),
            ("seed: 1, 2\n", "malformed value"),
            ("\tmodel: a\n", "tabs are not allowed"),
        ];
        for (doc, want) in cases {
            let err = parse_document(doc).unwrap_err();
            assert!(
                err.to_string().contains(want),
                "{doc:?}: expected {want:?} in {err}"
            );
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_document("model: a\nbogus\n").unwrap_err();
        assert_eq!(err.line, 2);
    }
}
