//! A minimal JSON value, parser, and string writer.
//!
//! The build environment vendors no JSON crate, so the workspace
//! hand-rolls the little it needs: [`Json`] is the value type,
//! [`parse_json`] the parser, and [`render_json`] / [`render_json_pretty`]
//! the writers. The benchmark (`benchmark/`) writes its reports with
//! them and reads them back.
//!
//! The lexing rules are written once: [`Lexer`] reads whitespace, strings
//! (escapes and `\u` surrogate pairs included), number tokens, literals
//! and list steps, and [`escape_into`], [`integer_into`] and
//! [`number_into`] (finite or `null`) write, none of them through
//! `core::fmt` (the digits come from the graph crate's digit writer,
//! which op names share). [`parse_json`] builds its tree from them. Two
//! readers do not go through [`Json`] at all and read each field with
//! the same primitives:
//! the run store's record codec (`tictac-store`), so a record line
//! follows the grammar `parse_json` accepts, and the streaming Perfetto
//! validator ([`crate::perfetto::validate_perfetto`]), which steps over
//! the values it does not read as `parse_json` would read them, with the
//! same errors at the same bytes.
//!
//! Writer invariant: numbers are emitted in Rust's shortest `Display`
//! form, which round-trips exactly through [`parse_json`] — for any
//! finite tree, `render(parse(render(v))) == render(v)` byte for byte.
//! The run store's byte-exact append-only guarantee rests on this.
//! The Perfetto exporter writes its documents directly, not through
//! [`Json`]: its fixed three-decimal timestamps are pinned byte for byte
//! by golden snapshots. It shares the string escape, [`escape_into`], and
//! the digit writer, [`integer_into`].

use std::borrow::Cow;

use tictac_graph::decimal;

mod shortest;

fn quote_into(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Appends `s` to `out` escaped as the body of a JSON string literal:
/// quote, backslash and control characters escaped, everything else
/// copied as is, in runs between escapes.
pub fn escape_into(out: &mut String, s: &str) {
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
            const HEX: &[u8; 16] = b"0123456789abcdef";
            out.push_str("\\u00");
            out.push(HEX[usize::from(b >> 4)] as char);
            out.push(HEX[usize::from(b & 0xf)] as char);
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

/// Appends `n` in decimal: the workspace's one digit writer
/// ([`decimal`], in `tictac-graph`, which op names share), in place of
/// `write!`.
pub fn integer_into(out: &mut String, n: u64) {
    let mut buf = [0; 20];
    out.push_str(decimal(&mut buf, n));
}

/// Appends a JSON number: Rust's shortest `Display` form, byte for byte —
/// the fewest significant digits that read back as `n` (the nearest such
/// decimal), laid out in plain decimal with no exponent, no point after
/// an integral value and `-0` for negative zero — so it round-trips
/// exactly through `str::parse::<f64>`. Integral values below 2^53 are
/// their integer's digits; the rest go through the shortest-digit search.
/// Non-finite values have no JSON spelling and are written as `null`;
/// writers that must reject them should validate before writing.
pub fn number_into(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
        return;
    }
    if n.is_sign_negative() {
        out.push('-');
    }
    let n = n.abs();
    // Below 2^53 the signed conversions are exact both ways.
    if n < (1u64 << 53) as f64 && n as i64 as f64 == n {
        return integer_into(out, n as u64);
    }
    let (digits, e10) = shortest::shortest(n.to_bits());
    let mut buf = [0; 20];
    let digits = decimal(&mut buf, digits);
    let zeros = |out: &mut String, count: i32| out.extend(std::iter::repeat_n('0', count as usize));
    // Digits before the point.
    let whole = e10 + digits.len() as i32;
    if e10 >= 0 {
        out.push_str(digits);
        zeros(out, e10);
    } else if whole > 0 {
        let (int, frac) = digits.split_at(whole as usize);
        out.push_str(int);
        out.push('.');
        out.push_str(frac);
    } else {
        out.push_str("0.");
        zeros(out, -whole);
        out.push_str(digits);
    }
}

/// A line break and `width × depth` spaces when pretty-printing.
fn newline(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * depth));
    }
}

fn render_into(value: &Json, indent: Option<usize>, depth: usize, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => number_into(out, *n),
        Json::Str(s) => quote_into(out, s),
        Json::Arr(items) if items.is_empty() => out.push_str("[]"),
        Json::Obj(fields) if fields.is_empty() => out.push_str("{}"),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, indent, depth + 1);
                render_into(item, indent, depth + 1, out);
            }
            newline(out, indent, depth);
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (key, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, indent, depth + 1);
                quote_into(out, key);
                out.push_str(if indent.is_some() { ": " } else { ":" });
                render_into(item, indent, depth + 1, out);
            }
            newline(out, indent, depth);
            out.push('}');
        }
    }
}

/// Renders a JSON value compactly (no whitespace), in shortest-number
/// form: `render_json(&parse_json(&render_json(v))?) == render_json(v)`
/// for any tree of finite numbers.
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

/// A cursor over one JSON document: the lexing primitives [`parse_json`]
/// and the run store's record codec (`tictac-store`) share, so both read
/// whitespace, strings, numbers and literals by one set of rules.
///
/// A token reader is called on the token's first byte and leaves the
/// cursor just past it; only [`Lexer::skip_ws`] and the list steps move
/// over whitespace. Every error has one shape, `json error at byte N: …`,
/// with `N` the byte offset it names.
#[derive(Debug)]
pub struct Lexer<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// A cursor on the first byte of `src`.
    pub fn new(src: &'a str) -> Self {
        Self { src, pos: 0 }
    }

    /// The cursor's byte offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// The byte under the cursor, if any.
    pub fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    /// An error at the cursor.
    pub fn err<T>(&self, msg: &str) -> Result<T, String> {
        self.err_at(self.pos, msg)
    }

    /// An error at byte `at`.
    pub fn err_at<T>(&self, at: usize, msg: &str) -> Result<T, String> {
        Err(format!("json error at byte {at}: {msg}"))
    }

    /// Moves past spaces, tabs, carriage returns and line feeds.
    pub fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes the byte `b`.
    pub fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected {:?}", b as char))
        }
    }

    /// Consumes `sep"key":` if the source holds exactly those bytes at the
    /// cursor — an object key as a compact writer emits it — and reports
    /// whether it did; otherwise the cursor stays put, for the token-by-
    /// token path. `key` must need no escape.
    pub fn compact_key(&mut self, sep: u8, key: &str) -> bool {
        let (rest, key) = (&self.src.as_bytes()[self.pos..], key.as_bytes());
        let len = key.len() + 4;
        let as_written = rest.len() >= len
            && rest[..2] == [sep, b'"']
            && &rest[2..len - 2] == key
            && rest[len - 2..len] == *b"\":";
        if as_written {
            self.pos += len;
        }
        as_written
    }

    /// Consumes the literal `word` (`true`, `false` or `null`).
    pub fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.src.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            self.err(&format!("expected {word}"))
        }
    }

    /// Consumes `open` and the whitespace after it. `Ok(true)`: an item
    /// follows; `Ok(false)`: `close` followed at once and was consumed.
    pub fn open_list(&mut self, open: u8, close: u8) -> Result<bool, String> {
        self.expect(open)?;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(false);
        }
        Ok(true)
    }

    /// After an item: skips whitespace, then consumes either a comma and
    /// the whitespace after it (`Ok(true)`: another item follows) or
    /// `close` (`Ok(false)`: the list ended).
    pub fn next_item(&mut self, close: u8) -> Result<bool, String> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                self.skip_ws();
                Ok(true)
            }
            Some(b) if b == close => {
                self.pos += 1;
                Ok(false)
            }
            _ => self.err(&format!("expected ',' or '{}'", close as char)),
        }
    }

    /// Reads a string literal, borrowed from the source when it holds no
    /// escape.
    pub fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let mut unescaped: Option<String> = None;
        loop {
            // Everything up to the next quote, backslash or control byte
            // is one run. All three are ASCII, so the run starts and ends
            // on a char boundary of the (already valid) source.
            let run = self.pos;
            self.pos += self.src.as_bytes()[run..]
                .iter()
                .position(|&b| matches!(b, b'"' | b'\\' | 0..=0x1f))
                .unwrap_or(self.src.len() - run);
            let text = &self.src[run..self.pos];
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match unescaped {
                        None => Cow::Borrowed(text),
                        Some(mut out) => {
                            out.push_str(text);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(b'\\') => {
                    let out = unescaped.get_or_insert_with(String::new);
                    out.push_str(text);
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

    /// Scans a number token — an optional `-`, then any run of digits,
    /// `.`, `e`, `E`, `+` and `-` — and returns its text unparsed (empty
    /// when none is there). [`Lexer::number`] reads it as an `f64`; the
    /// run store reads its integer fields from the text exactly.
    pub fn number_text(&mut self) -> &'a str {
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
        &self.src[start..self.pos]
    }

    /// Reads a number token as a finite `f64`.
    pub fn number(&mut self) -> Result<f64, String> {
        let text = self.number_text();
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(n),
            _ => self.err(&format!("bad number {text:?}")),
        }
    }

    /// Skips trailing whitespace and fails unless the document ends there.
    pub fn end(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.src.len() {
            Ok(())
        } else {
            self.err("trailing characters after document")
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

/// Deepest array/object nesting [`parse_json`] follows: it recurses once
/// per level, so unbounded, a file of nothing but `[` overflows the stack.
/// What the workspace writes nests six levels at most (a run record).
const MAX_DEPTH: usize = 128;

/// One value, `depth` arrays and objects down from the document. With
/// `keep` false the value is checked, not built: strings stay borrowed
/// where they can, containers collect nothing, and `Null` comes back.
fn value(lx: &mut Lexer, depth: usize, keep: bool) -> Result<Json, String> {
    lx.skip_ws();
    match lx.peek() {
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            lx.err(&format!("nesting deeper than {MAX_DEPTH} levels"))
        }
        Some(b'{') => {
            let mut fields = Vec::new();
            let mut more = lx.open_list(b'{', b'}')?;
            while more {
                let key = lx.string()?;
                lx.skip_ws();
                lx.expect(b':')?;
                let item = value(lx, depth + 1, keep)?;
                if keep {
                    fields.push((key.into_owned(), item));
                }
                more = lx.next_item(b'}')?;
            }
            Ok(Json::Obj(fields))
        }
        Some(b'[') => {
            let mut items = Vec::new();
            let mut more = lx.open_list(b'[', b']')?;
            while more {
                let item = value(lx, depth + 1, keep)?;
                if keep {
                    items.push(item);
                }
                more = lx.next_item(b']')?;
            }
            Ok(Json::Arr(items))
        }
        Some(b'"') => {
            let text = lx.string()?;
            Ok(if keep {
                Json::Str(text.into_owned())
            } else {
                Json::Null
            })
        }
        Some(b't') => lx.literal("true").map(|()| Json::Bool(true)),
        Some(b'f') => lx.literal("false").map(|()| Json::Bool(false)),
        Some(b'n') => lx.literal("null").map(|()| Json::Null),
        Some(b'-' | b'0'..=b'9') => lx.number().map(Json::Num),
        Some(c) => lx.err(&format!("unexpected {:?}", c as char)),
        None => lx.err("unexpected end of input"),
    }
}

/// Checks one value `depth` levels down as [`parse_json`] reads it —
/// the same errors at the same bytes — without building it: the
/// streaming validator's step over the fields it does not read.
pub(crate) fn skip_value(lx: &mut Lexer, depth: usize) -> Result<(), String> {
    value(lx, depth, false).map(drop)
}

/// Parses one JSON document, rejecting trailing garbage and nesting
/// deeper than 128 levels.
pub fn parse_json(src: &str) -> Result<Json, String> {
    let lx = &mut Lexer::new(src);
    let doc = value(lx, 0, true)?;
    lx.end()?;
    Ok(doc)
}

/// Escapes `s` as a JSON string literal, including the surrounding
/// quotes.
#[cfg(test)]
pub(crate) fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    quote_into(&mut out, s);
    out
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

    fn number(n: f64) -> String {
        let mut out = String::new();
        number_into(&mut out, n);
        out
    }

    /// SplitMix64, so the cases are fixed and need no dev-dependency.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (*state ^ (*state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The float writer against `format!("{}")`, the spelling the run
    /// store's committed bytes were written in: an edge table, then
    /// random bit patterns spread over every exponent (subnormals and
    /// negatives included), doubles with a few fraction bits (ties
    /// between two nearest candidates) and doubles parsed from short
    /// decimals (the search's exact-lower-bound path). 10^4 cases in a
    /// debug build, 10^6 in release.
    #[test]
    fn shortest_float_matches_display() {
        let mut edges = vec![
            0.0,
            -0.0,
            f64::from_bits(1),
            f64::from_bits((1 << 52) - 1),
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            9007199254740991.0,
            9007199254740992.0,
            9007199254740993.0, // 2^53 + 1, read as 2^53
            9007199254740994.0,
            9223372036854775808.0,
            18446744073709551616.0,
            0.1 + 0.2,
            0.1,
            1.0 / 3.0,
            123456789012345.0,
            0.123456789012345,
            1234567890123456.7,
            0.30000000000000004,
            5e-324,
            1.5e300,
        ];
        for k in -7..=22 {
            let p: f64 = format!("1e{k}").parse().unwrap();
            let bits = p.to_bits();
            edges.extend([p, f64::from_bits(bits - 1), f64::from_bits(bits + 1)]);
        }
        for &v in &edges {
            assert_eq!(number(v), format!("{v}"), "{v:e}");
            assert_eq!(number(-v), format!("{}", -v), "{:e}", -v);
        }

        let cases = if cfg!(debug_assertions) {
            10_000
        } else {
            1_000_000
        };
        let state = &mut 0x5407_7E57;
        for case in 0..cases {
            let r = splitmix(state);
            let v = match case % 4 {
                // A short decimal, up to 17 digits, at a random scale.
                3 => {
                    let digits = r % 10u64.pow(1 + (r >> 59) as u32 % 17);
                    let scale = (splitmix(state) % 620) as i32 - 324;
                    format!("{digits}e{scale}").parse().unwrap()
                }
                // A few fraction bits below 2^53, where the two nearest
                // 17-digit candidates can tie.
                2 => (r >> 11) as f64 / (1 << (r % 13)) as f64,
                // Sign and mantissa random, exponents 0..=2046 in turn.
                _ => f64::from_bits(r & !(0x7ff << 52) | (case as u64 % 2047) << 52),
            };
            if v.is_finite() {
                assert_eq!(number(v), format!("{v}"), "{:#x}", v.to_bits());
            }
        }
    }

    /// Every width, both sides of every power of ten, and random values.
    #[test]
    fn integer_writer_writes_every_width() {
        let state = &mut 0x01D1_6175;
        let powers = (0..20).map(|k| 10u64.pow(k));
        let edges = powers.flat_map(|p| [p - 1, p, p + 1]);
        let mut out = String::new();
        for n in edges
            .chain([u64::MAX])
            .chain((0..10_000).map(|_| splitmix(state)))
        {
            out.clear();
            integer_into(&mut out, n);
            assert_eq!(out, n.to_string());
        }
    }

    /// The compact-key step consumes exactly `sep"key":` and otherwise
    /// leaves the cursor for the token-by-token path.
    #[test]
    fn compact_keys_match_only_as_written() {
        for (src, sep, key, hit) in [
            (",\"id\":1", b',', "id", true),
            ("{\"id\":", b'{', "id", true),
            (",\"id\" :1", b',', "id", false),
            (", \"id\":1", b',', "id", false),
            (",\"i\\u0064\":1", b',', "id", false),
            (",\"idx\":1", b',', "id", false),
            (",\"id", b',', "id", false),
            ("{\"id\":", b',', "id", false),
        ] {
            let mut lx = Lexer::new(src);
            assert_eq!(lx.compact_key(sep, key), hit, "{src}");
            assert_eq!(lx.pos(), if hit { key.len() + 4 } else { 0 }, "{src}");
        }
    }

    /// Every control byte as the six-byte `\u00XX` escape `format!` wrote,
    /// but for the three with a short escape.
    #[test]
    fn control_bytes_escape_as_format_wrote_them() {
        for b in 0u8..0x20 {
            let mut out = String::new();
            escape_into(&mut out, &char::from(b).to_string());
            let want = match b {
                b'\n' => "\\n".to_string(),
                b'\r' => "\\r".to_string(),
                b'\t' => "\\t".to_string(),
                _ => format!("\\u{:04x}", b),
            };
            assert_eq!(out, want, "byte {b:#04x}");
        }
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
