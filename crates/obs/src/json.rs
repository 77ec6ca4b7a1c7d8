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
//! (The Perfetto exporter keeps its own historical formatting because
//! its output bytes are pinned by a golden snapshot.)

/// Escapes `s` as a JSON string literal, including the surrounding
/// quotes.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, msg: &str) -> Result<T, String> {
        Err(format!("json error at byte {}: {msg}", self.pos))
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
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
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.err(&format!("expected {word}"))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => self.err(&format!("unexpected {:?}", c as char)),
            None => self.err("unexpected end of input"),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
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
            let value = self.value()?;
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

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
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
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            match hex.and_then(char::from_u32) {
                                Some(c) => {
                                    out.push(c);
                                    self.pos += 4;
                                }
                                None => return self.err("bad \\u escape"),
                            }
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar, not one byte.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| format!("json error at byte {}: invalid utf-8", self.pos))?;
                    let c = rest.chars().next().expect("peeked non-empty");
                    if (c as u32) < 0x20 {
                        return self.err("raw control character in string");
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return self.err("unterminated string"),
            }
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => self.err(&format!("bad number {text:?}")),
        }
    }
}

/// Parses one JSON document, rejecting trailing garbage.
pub fn parse_json(src: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        pos: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
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
        for bad in ["", "{", "[1, 2", "{\"a\": }", "{} trailing", "\"\\q\""] {
            assert!(parse_json(bad).is_err(), "accepted {bad:?}");
        }
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
