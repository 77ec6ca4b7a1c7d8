//! A minimal JSON value, parser, and string writer.
//!
//! The build environment vendors no JSON crate, so the workspace
//! hand-rolls the little it needs: the run store (`tictac-store`)
//! encodes and strictly decodes its JSONL records with it, the Perfetto
//! exporter's validator ([`crate::perfetto::validate_perfetto`]) parses
//! trace files back, and the benchmark (`benchmark/`) writes its reports
//! with it. Lives here so every side shares one implementation:
//! [`Json`] is the value type, [`parse_json`] the parser, and
//! [`render_json`] / [`render_json_pretty`] the writers.
//!
//! Writer invariant: numbers are emitted in Rust's shortest `Display`
//! form, which round-trips exactly through [`parse_json`] — for any
//! finite tree, `render(parse(render(v))) == render(v)` byte for byte.
//! The run store's byte-exact append-only guarantee rests on this.
//! The Perfetto exporter writes its documents directly, not through
//! [`Json`]: its fixed three-decimal timestamps are pinned byte for byte
//! by golden snapshots. It shares only the string escape, [`quote`]'s.

use std::fmt::Write as _;

/// Escapes `s` as a JSON string literal, including the surrounding
/// quotes.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(&mut out, s);
    out.push('"');
    out
}

/// Appends `s` to `out` escaped as the body of a JSON string literal:
/// quote, backslash and control characters escaped, everything else
/// copied as is, in runs between escapes.
pub(crate) fn escape_into(out: &mut String, s: &str) {
    let mut copied = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            b if b < 0x20 => "",
            _ => continue,
        };
        // An ASCII byte is a whole character, so `i` is a char boundary.
        out.push_str(&s[copied..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        copied = i + 1;
    }
    out.push_str(&s[copied..]);
}

/// A parsed JSON value (the workspace vendors no JSON crate).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object's fields in source order, if it is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

/// Formats a JSON number: Rust's shortest `Display` representation,
/// which never uses exponent notation and round-trips exactly through
/// `str::parse::<f64>`. Non-finite values have no JSON spelling and
/// render as `null`; writers that must reject them should validate
/// before rendering.
fn fmt_num(n: f64) -> String {
    if n.is_finite() {
        format!("{n}")
    } else {
        "null".to_string()
    }
}

fn render_into(value: &Json, indent: Option<usize>, depth: usize, out: &mut String) {
    let (open_sep, item_sep, close_sep) = match indent {
        Some(width) => (
            format!("\n{}", " ".repeat(width * (depth + 1))),
            format!(",\n{}", " ".repeat(width * (depth + 1))),
            format!("\n{}", " ".repeat(width * depth)),
        ),
        None => (String::new(), ",".to_string(), String::new()),
    };
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => out.push_str(&fmt_num(*n)),
        Json::Str(s) => out.push_str(&quote(s)),
        Json::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                out.push_str(if i == 0 { &open_sep } else { &item_sep });
                render_into(item, indent, depth + 1, out);
            }
            out.push_str(&close_sep);
            out.push(']');
        }
        Json::Obj(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, item)) in fields.iter().enumerate() {
                out.push_str(if i == 0 { &open_sep } else { &item_sep });
                out.push_str(&quote(key));
                out.push_str(if indent.is_some() { ": " } else { ":" });
                render_into(item, indent, depth + 1, out);
            }
            out.push_str(&close_sep);
            out.push('}');
        }
    }
}

/// Renders a JSON value compactly (no whitespace), in shortest-number
/// form. This is the run store's canonical single-line encoding:
/// `render_json(&parse_json(&render_json(v))?) == render_json(v)` for
/// any tree of finite numbers.
pub fn render_json(value: &Json) -> String {
    let mut out = String::new();
    render_into(value, None, 0, &mut out);
    out
}

/// Renders a JSON value pretty-printed with two-space indentation, one
/// field or element per line.
pub fn render_json_pretty(value: &Json) -> String {
    let mut out = String::new();
    render_into(value, Some(2), 0, &mut out);
    out
}

/// Deepest array/object nesting [`parse_json`] follows: it recurses once
/// per level, so unbounded, a file of nothing but `[` overflows the stack.
/// What the workspace writes nests six levels at most (a run record).
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, msg: &str) -> Result<T, String> {
        Err(format!("json error at byte {}: {msg}", self.pos))
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected {:?}", b as char))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.src.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.err(&format!("expected {word}"))
        }
    }

    /// One value, `depth` arrays and objects down from the document.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => {
                self.err(&format!("nesting deeper than {MAX_DEPTH} levels"))
            }
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => self.err(&format!("unexpected {:?}", c as char)),
            None => self.err("unexpected end of input"),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Everything up to the next quote, backslash or control byte
            // is copied as one run. All three are ASCII, so the run starts
            // and ends on a char boundary of the (already valid) source.
            let run = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\' | 0..=0x1f)) {
                self.pos += 1;
            }
            out.push_str(&self.src[run..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => match self.unicode_escape() {
                            Some((c, len)) => {
                                out.push(c);
                                self.pos += len;
                            }
                            None => return self.err("bad \\u escape"),
                        },
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => return self.err("raw control character in string"),
                None => return self.err("unterminated string"),
            }
        }
    }

    /// The scalar spelled by the `\u` escape whose `u` is at `self.pos`,
    /// and how many bytes follow that `u`: four hex digits, or ten when a
    /// high surrogate is completed by an escaped low one. A lone
    /// surrogate is no scalar.
    fn unicode_escape(&self) -> Option<(char, usize)> {
        let bytes = self.src.as_bytes();
        let unit = hex4(bytes.get(self.pos + 1..self.pos + 5)?)?;
        match (unit, bytes.get(self.pos + 5..self.pos + 11)) {
            (0xD800..=0xDBFF, Some([b'\\', b'u', low @ ..])) => {
                let low = hex4(low).filter(|low| (0xDC00..0xE000).contains(low))?;
                let scalar = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                Some((char::from_u32(scalar)?, 10))
            }
            _ => Some((char::from_u32(unit)?, 4)),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => self.err(&format!("bad number {text:?}")),
        }
    }
}

/// Exactly four hex digits as one UTF-16 code unit (`from_str_radix`
/// would also take a sign).
fn hex4(digits: &[u8]) -> Option<u32> {
    digits
        .iter()
        .try_fold(0, |unit, &d| Some(unit * 16 + (d as char).to_digit(16)?))
}

/// Parses one JSON document, rejecting trailing garbage and nesting
/// deeper than 128 levels.
pub fn parse_json(src: &str) -> Result<Json, String> {
    let mut p = Parser { src, pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != src.len() {
        return p.err("trailing characters after document");
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let v = parse_json(r#"{"a\n\"bA": [1, -2.5e1, true, null, {}]}"#).unwrap();
        let arr = v.get("a\n\"bA").and_then(Json::as_array).unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_f64(), Some(-25.0));
        assert_eq!(arr[2].as_bool(), Some(true));
        assert_eq!(arr[3], Json::Null);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        let bottomless = "[".repeat(200_000);
        for bad in [
            "",
            "{",
            "[1, 2",
            "{\"a\": }",
            "{} trailing",
            "\"\\q\"",
            // `from_str_radix` took the sign; a `\u` is four hex digits.
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u00""#,
            // Surrogates only count as an escaped high+low pair.
            r#""\ud83d""#,
            r#""\ude00""#,
            r#""\ud83d\u0041""#,
            r#""\ud83dx\ude00""#,
            bottomless.as_str(),
        ] {
            let head: String = bad.chars().take(20).collect();
            assert!(parse_json(bad).is_err(), "accepted {head:?}");
        }
        assert_eq!(
            parse_json(&bottomless).unwrap_err(),
            "json error at byte 128: nesting deeper than 128 levels"
        );
        // The bound counts arrays and objects alike, and 128 levels pass.
        let deepest = format!("{}1{}", "[{\"k\":".repeat(64), "}]".repeat(64));
        assert!(parse_json(&deepest).is_ok());
        assert!(parse_json(&format!("[{deepest}]")).is_err());
    }

    #[test]
    fn unicode_escapes_spell_one_scalar() {
        let parsed = |doc: &str| parse_json(doc).unwrap();
        assert_eq!(parsed(r#""\u0041\u00e9\u6f22""#), Json::Str("Aé漢".into()));
        // U+1F600 as an escaped surrogate pair, upper- or lower-case hex.
        assert_eq!(parsed(r#""\ud83d\ude00""#), Json::Str("😀".into()));
        assert_eq!(parsed(r#""a\uD83D\uDE00b""#), Json::Str("a😀b".into()));
    }

    #[test]
    fn multibyte_strings_roundtrip_next_to_escapes_and_quotes() {
        for s in [
            "é",
            "漢",
            "😀",
            "é\"漢\\😀",
            "\"é",
            "é\"",
            "\n漢\t",
            "😀\u{1}é\u{1f}",
            "plain, then é漢😀",
            "é漢😀, then plain",
            "",
        ] {
            let value = Json::Arr(vec![
                Json::Str(s.into()),
                Json::Obj(vec![(s.into(), Json::Str(s.into()))]),
            ]);
            let text = render_json(&value);
            assert_eq!(parse_json(&text).unwrap(), value, "{text}");
            assert_eq!(render_json(&parse_json(&text).unwrap()), text);
            // A multi-byte string that ends the input.
            assert_eq!(parse_json(&quote(s)).unwrap(), Json::Str(s.into()));
        }
    }

    #[test]
    fn error_positions_are_byte_offsets() {
        for (doc, error) in [
            (
                "\"é\u{1}\"",
                "json error at byte 3: raw control character in string",
            ),
            (
                "[\"a\nb\"]",
                "json error at byte 3: raw control character in string",
            ),
            ("\"漢字", "json error at byte 7: unterminated string"),
            ("{\"k\": \"v", "json error at byte 8: unterminated string"),
            ("\"a\\", "json error at byte 3: bad escape"),
            ("\"é\\q\"", "json error at byte 4: bad escape"),
            ("\"é\\u12\"", "json error at byte 4: bad \\u escape"),
            (
                "{} trailing",
                "json error at byte 3: trailing characters after document",
            ),
            (
                "\"é\" 1",
                "json error at byte 5: trailing characters after document",
            ),
        ] {
            assert_eq!(parse_json(doc).unwrap_err(), error, "{doc:?}");
        }
    }

    /// A tripwire for per-character work that grows with the document: a
    /// parser that re-validates the rest of the input for every character
    /// needs minutes for this, a linear one a fraction of a debug-build
    /// second.
    #[test]
    fn four_megabytes_of_strings_parse_in_the_ordinary_test_run() {
        let item = quote("transfer é漢😀 \"recv\" on channel\t42");
        let count = 4_000_000 / (item.len() + 1) + 1;
        let doc = format!("[{}]", vec![item.as_str(); count].join(","));
        assert!(doc.len() > 4_000_000);
        let items = parse_json(&doc).unwrap();
        let items = items.as_array().unwrap();
        assert_eq!(items.len(), count);
        assert_eq!(quote(items[count - 1].as_str().unwrap()), item);
    }

    #[test]
    fn writer_roundtrips_byte_exactly() {
        let v = Json::Obj(vec![
            ("a".into(), Json::Num(1.0)),
            ("b".into(), Json::Num(-2.5e-3)),
            ("big".into(), Json::Num(9007199254740991.0)), // 2^53 - 1
            ("s".into(), Json::Str("tab\there \"q\"".into())),
            (
                "arr".into(),
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::Obj(vec![])]),
            ),
            ("empty".into(), Json::Arr(vec![])),
        ]);
        let compact = render_json(&v);
        assert!(!compact.contains('\n'));
        let reparsed = parse_json(&compact).unwrap();
        assert_eq!(reparsed, v);
        assert_eq!(render_json(&reparsed), compact, "byte-exact round trip");
        // Pretty output parses back to the same tree.
        let pretty = render_json_pretty(&v);
        assert!(pretty.contains("\n  \"a\": 1,"));
        assert_eq!(parse_json(&pretty).unwrap(), v);
    }

    #[test]
    fn writer_numbers_are_shortest_form() {
        assert_eq!(render_json(&Json::Num(1.0)), "1");
        assert_eq!(render_json(&Json::Num(0.1)), "0.1");
        assert_eq!(render_json(&Json::Num(-25.0)), "-25");
        // Non-finite numbers have no JSON spelling.
        assert_eq!(render_json(&Json::Num(f64::NAN)), "null");
        assert_eq!(render_json(&Json::Num(f64::INFINITY)), "null");
    }

    #[test]
    fn quote_escapes_specials() {
        assert_eq!(quote("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(quote("\u{1}"), "\"\\u0001\"");
        // Round-trip through the parser.
        assert_eq!(
            parse_json(&quote("tab\there")).unwrap(),
            Json::Str("tab\there".into())
        );
    }
}
