//! A minimal, dependency-free JSON value with a deterministic writer and a
//! strict parser.
//!
//! The build environment has no registry access, so `serde_json` is not
//! available; campaign reports instead round-trip through this module.
//! Objects preserve insertion order (they are association lists, not maps),
//! which makes the rendered bytes a pure function of the report value — the
//! determinism guarantee the campaign tests assert.

use std::fmt::Write as _;

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (integers are rendered without a decimal point).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for object values.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Convenience constructor for `u64` counters. Counters large enough to
    /// lose integer precision in a JSON number (above 2^53) do not occur in
    /// reports; the float detour stays confined to this module, which keeps
    /// callers in the fdn-lint D4 accounting scope float-free.
    pub fn num_u64(x: u64) -> Json {
        Json::Num(x as f64)
    }

    /// The value at `key`, if `self` is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if `self` is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric value, if `self` is a whole number in `0..=2^53` — the
    /// range an `f64` holds exactly. Fractions, negatives and larger values
    /// are `None`, never truncated.
    pub fn as_u64(&self) -> Option<u64> {
        const EXACT: f64 = 9_007_199_254_740_992.0;
        self.as_f64()
            .filter(|x| x.fract() == 0.0 && (0.0..=EXACT).contains(x))
            .map(|x| x as u64)
    }

    /// The string value, if `self` is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if `self` is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as an integer of type `T`: a whole number (see
    /// [`Json::as_u64`]) that `T` holds, else an error saying so.
    pub(crate) fn int<T: TryFrom<u64>>(&self) -> Result<T, String> {
        self.as_u64()
            .and_then(|x| T::try_from(x).ok())
            .ok_or_else(|| "is not an integer in range".to_string())
    }

    /// The value as an owned string, else an error saying so.
    pub(crate) fn string(&self) -> Result<String, String> {
        self.as_str()
            .map(str::to_string)
            .ok_or_else(|| "is not a string".to_string())
    }

    /// The value at `key` of an object, else the error "field `KEY`
    /// missing" — the checked reader every saved-document parser goes
    /// through, as do the typed `*_field` readers below, whose errors name
    /// the field too.
    pub fn field(&self, key: &str) -> Result<&Json, String> {
        self.get(key)
            .ok_or_else(|| format!("field `{key}` missing"))
    }

    fn field_as<'a, T>(
        &'a self,
        key: &str,
        read: impl FnOnce(&'a Json) -> Result<T, String>,
    ) -> Result<T, String> {
        read(self.field(key)?).map_err(|e| format!("field `{key}` {e}"))
    }

    /// The string field `key`.
    pub fn str_field(&self, key: &str) -> Result<String, String> {
        self.field_as(key, Json::string)
    }

    /// The integer field `key`: a whole number (see [`Json::as_u64`]) that
    /// `T` holds, never truncated or wrapped.
    pub fn int_field<T: TryFrom<u64>>(&self, key: &str) -> Result<T, String> {
        self.field_as(key, Json::int)
    }

    /// The numeric field `key`.
    pub fn num_field(&self, key: &str) -> Result<f64, String> {
        self.field_as(key, |v| {
            v.as_f64().ok_or_else(|| "is not a number".to_string())
        })
    }

    /// The boolean field `key`.
    pub fn bool_field(&self, key: &str) -> Result<bool, String> {
        self.field_as(key, |v| match v {
            Json::Bool(b) => Ok(*b),
            _ => Err("is not a boolean".to_string()),
        })
    }

    /// The array field `key`, each element converted by `item`; an element's
    /// error names the field and index (`` `cells[3]` ``).
    pub fn arr_field<T>(
        &self,
        key: &str,
        item: impl Fn(&Json) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.field_as(key, |v| {
            v.as_arr().ok_or_else(|| "is not an array".to_string())
        })?
        .iter()
        .enumerate()
        .map(|(i, v)| item(v).map_err(|e| format!("`{key}[{i}]` {e}")))
        .collect()
    }

    /// Renders the document with 2-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Renders the document on a single line with no whitespace and no
    /// trailing newline — the shape `fromJson()` expressions and
    /// `$GITHUB_OUTPUT` lines want (an output value must not contain
    /// newlines). Deterministic for the same reason [`render`](Self::render)
    /// is: objects are association lists in insertion order.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_num(out, *x),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_num(out, *x),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (strict: one value, only trailing whitespace).
    ///
    /// # Errors
    ///
    /// Returns a position-annotated description of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

fn write_num(out: &mut String, x: f64) {
    if x.is_nan() || x.is_infinite() {
        // JSON has no NaN/Inf; report code maps them to null before here.
        out.push_str("null");
    } else if x.fract() == 0.0 && x.abs() < 9.0e15 {
        let _ = write!(out, "{}", x as i64);
    } else {
        let _ = write!(out, "{x}");
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {pos}", b as char))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape".to_string())?,
                            16,
                        )
                        .map_err(|_| "bad \\u escape".to_string())?;
                        // Surrogate pairs are not needed for report content.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole run up to the next quote or backslash at
                // once. Both are ASCII and never occur inside a multi-byte
                // sequence, so the run ends on a character boundary, and
                // each byte is validated exactly once.
                let start = *pos;
                while *pos < bytes.len() && !matches!(bytes[*pos], b'"' | b'\\') {
                    *pos += 1;
                }
                out.push_str(
                    std::str::from_utf8(&bytes[start..*pos])
                        .map_err(|_| "invalid UTF-8 in string".to_string())?,
                );
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii");
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_roundtrip() {
        let doc = Json::obj(vec![
            ("name", Json::Str("quick \"test\"\n".into())),
            ("count", Json::Num(42.0)),
            ("rate", Json::Num(0.5)),
            ("ok", Json::Bool(true)),
            ("missing", Json::Null),
            ("items", Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)])),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
        ]);
        let text = doc.render();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn integers_render_without_decimal_point() {
        assert_eq!(Json::Num(42.0).render(), "42\n");
        assert_eq!(Json::Num(0.25).render(), "0.25\n");
        assert_eq!(Json::Num(f64::NAN).render(), "null\n");
    }

    #[test]
    fn compact_rendering_is_single_line_and_parses_back() {
        let doc = Json::obj(vec![
            (
                "include",
                Json::Arr(vec![Json::obj(vec![
                    ("shard", Json::Str("0of2".into())),
                    ("index", Json::num_u64(0)),
                ])]),
            ),
            ("empty", Json::Arr(vec![])),
            ("none", Json::Obj(vec![])),
        ]);
        let text = doc.render_compact();
        assert!(!text.contains('\n') && !text.contains(' '), "{text}");
        assert_eq!(Json::parse(&text).unwrap(), doc);
        assert_eq!(
            text,
            r#"{"include":[{"shard":"0of2","index":0}],"empty":[],"none":{}}"#
        );
    }

    #[test]
    fn num_u64_renders_exact_integers() {
        assert_eq!(Json::num_u64(0).render_compact(), "0");
        assert_eq!(
            Json::num_u64(9_007_199_254_740_992).render_compact(),
            "9007199254740992"
        );
    }

    #[test]
    fn object_order_is_preserved() {
        let doc = Json::obj(vec![("z", Json::Num(1.0)), ("a", Json::Num(2.0))]);
        let text = doc.render();
        assert!(text.find("\"z\"").unwrap() < text.find("\"a\"").unwrap());
    }

    #[test]
    fn accessors() {
        let doc = Json::obj(vec![("x", Json::Num(3.0)), ("s", Json::Str("hi".into()))]);
        assert_eq!(doc.get("x").and_then(Json::as_u64), Some(3));
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("hi"));
        assert!(doc.get("nope").is_none());
        assert_eq!(Json::Arr(vec![]).as_arr(), Some(&[][..]));
    }

    #[test]
    fn integers_are_read_exactly_or_not_at_all() {
        for bad in [2.5, -1.0, 18_446_744_073_709_551_616.0, f64::NAN] {
            assert_eq!(Json::Num(bad).as_u64(), None, "{bad}");
        }
        assert_eq!(Json::Num(0.0).as_u64(), Some(0));
        assert_eq!(Json::Num(9_007_199_254_740_992.0).as_u64(), Some(1 << 53));
        let doc =
            Json::parse(r#"{"n": 70000, "f": 2.9, "s": "x", "b": true, "a": [1, -7]}"#).unwrap();
        assert_eq!(doc.int_field::<u32>("n"), Ok(70_000));
        for key in ["n", "f", "s"] {
            let err = format!("field `{key}` is not an integer in range");
            assert_eq!(doc.int_field::<u16>(key), Err(err));
        }
        assert_eq!(
            doc.int_field::<u16>("nope"),
            Err("field `nope` missing".into())
        );
        assert_eq!(doc.str_field("s").as_deref(), Ok("x"));
        assert_eq!(doc.str_field("b").unwrap_err(), "field `b` is not a string");
        assert_eq!(doc.bool_field("b"), Ok(true));
        assert_eq!(doc.num_field("f"), Ok(2.9));
        assert_eq!(
            doc.arr_field("a", Json::int::<u8>).unwrap_err(),
            "`a[1]` is not an integer in range"
        );
        assert_eq!(
            doc.arr_field("n", Json::int::<u8>).unwrap_err(),
            "field `n` is not an array"
        );
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in ["", "{", "[1,", "{\"a\"}", "nul", "1 2", "\"unterminated"] {
            assert!(Json::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn multi_byte_text_round_trips() {
        let text = "‰—× axis (per mille) ‰, \"quoted\" \\ tail ×";
        let doc = Json::obj(vec![
            ("label", Json::Str(text.to_string())),
            (
                "items",
                Json::Arr(vec![Json::Str("—".into()), Json::Str("".into())]),
            ),
        ]);
        for rendered in [doc.render(), doc.render_compact()] {
            assert_eq!(Json::parse(&rendered).unwrap(), doc);
        }
        // Escapes between multi-byte runs decode in place.
        let parsed = Json::parse(r#""‰\n×\u00e9—""#).unwrap();
        assert_eq!(parsed.as_str(), Some("‰\n×é—"));
        // The strict errors survive.
        assert!(Json::parse("\"‰—×").unwrap_err().contains("unterminated"));
        assert!(Json::parse(r#""‰\q""#).unwrap_err().contains("bad escape"));
    }

    #[test]
    fn parses_nested_standard_json() {
        let text = r#"{"a": [1, 2.5, {"b": null}], "c": "xAy"}"#;
        let doc = Json::parse(text).unwrap();
        assert_eq!(doc.get("c").and_then(Json::as_str), Some("xAy"));
        assert_eq!(
            doc.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
    }
}
