//! A minimal, dependency-free JSON value with a deterministic writer and a
//! strict parser.
//!
//! The build environment has no registry access, so `serde_json` is not
//! available; campaign reports instead round-trip through this module.
//! Objects preserve insertion order (they are association lists, not maps),
//! which makes the rendered bytes a pure function of the report value — the
//! determinism guarantee the campaign tests assert.

use std::fmt::Write as _;

/// The deepest nesting of arrays and objects [`Json::parse`] accepts.
/// Campaign and frontier reports nest at most 5 levels; the bound keeps a
/// hostile file from overflowing the parser's stack.
const MAX_DEPTH: usize = 64;

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
    /// callers in the D4 accounting modules (those denying
    /// `clippy::cast_precision_loss`) float-free.
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

    /// The value at `key` of an object, else the error "field `KEY`
    /// missing".
    pub fn field(&self, key: &str) -> Result<&Json, String> {
        self.get(key)
            .ok_or_else(|| format!("field `{key}` missing"))
    }

    /// The field `key` of an object, read as a `T` — the one checked reader
    /// every saved-document parser goes through. A missing field, or a
    /// value `T` cannot hold exactly, is an error naming the field.
    pub fn read<T: Field>(&self, key: &str) -> Result<T, String> {
        T::read_field(self, key)
    }

    /// Renders the document with 2-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Renders the document on a single line with no whitespace and no
    /// trailing newline — the shape of one record of a trace's JSONL
    /// artifact. Deterministic for the same reason [`render`](Self::render)
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
    /// It accepts only what it can write back: arrays and objects nest at
    /// most 64 levels, and every number is finite.
    ///
    /// # Errors
    ///
    /// Returns a position-annotated description of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

/// A value a saved report stores: its JSON form, its strict read and its
/// CSV columns. Scalars, `Option<T>` (`null`, empty CSV cells) and `Vec<T>`
/// (no CSV columns) implement it here; report records implement it through
/// a `record!` table that lists their fields once, in JSON order.
pub trait Field: Sized {
    /// The value as JSON.
    fn to_json(&self) -> Json;

    /// Reads a value [`Field::to_json`] wrote, exactly. The error says what
    /// is wrong with `j`; [`Json::read`] prefixes the field's name.
    fn from_json(j: &Json) -> Result<Self, String>;

    /// Reads the field `key` of the object `obj` (see [`Json::read`]).
    fn read_field(obj: &Json, key: &str) -> Result<Self, String> {
        Self::from_json(obj.field(key)?).map_err(|e| format!("field `{key}` {e}"))
    }

    /// The CSV column names of a value stored under `key`; none by default.
    fn csv_columns(_key: &str) -> Vec<String> {
        Vec::new()
    }

    /// The value's CSV cells, one per column of [`Field::csv_columns`].
    fn csv_cells(&self) -> Vec<String> {
        Vec::new()
    }
}

/// Implements [`Field`] for a scalar: one CSV column, its `Display` form.
macro_rules! scalar_field {
    ($t:ty, $expected:literal, |$j:ident| $read:expr, |$x:ident| $json:expr) => {
        impl Field for $t {
            fn to_json(&self) -> Json {
                let $x = self;
                $json
            }

            fn from_json($j: &Json) -> Result<Self, String> {
                $read.ok_or_else(|| $expected.to_string())
            }

            fn csv_columns(key: &str) -> Vec<String> {
                vec![key.to_string()]
            }

            fn csv_cells(&self) -> Vec<String> {
                vec![csv_field(&self.to_string())]
            }
        }
    };
}

/// Integers are read exactly (see [`Json::as_u64`]): a fraction, a negative
/// or a value the type cannot hold is an error, never truncated or wrapped.
macro_rules! int_fields {
    ($($t:ty),*) => {$(
        scalar_field!($t, "is not an integer in range",
            |j| j.as_u64().and_then(|x| <$t>::try_from(x).ok()), |x| Json::Num(*x as f64));
    )*};
}

int_fields!(u16, u32, u64, usize);
scalar_field!(f64, "is not a number", |j| j.as_f64(), |x| Json::Num(*x));
scalar_field!(
    bool,
    "is not a boolean",
    |j| [true, false].into_iter().find(|&b| *j == Json::Bool(b)),
    |x| Json::Bool(*x)
);
scalar_field!(
    String,
    "is not a string",
    |j| j.as_str().map(str::to_string),
    |x| Json::Str(x.clone())
);

impl<T: Field> Field for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, Field::to_json)
    }

    fn from_json(j: &Json) -> Result<Self, String> {
        match j {
            Json::Null => Ok(None),
            v => T::from_json(v).map(Some),
        }
    }

    fn csv_columns(key: &str) -> Vec<String> {
        T::csv_columns(key)
    }

    fn csv_cells(&self) -> Vec<String> {
        match self {
            Some(v) => v.csv_cells(),
            None => vec![String::new(); T::csv_columns("").len()],
        }
    }
}

impl<T: Field> Field for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(Field::to_json).collect())
    }

    fn from_json(j: &Json) -> Result<Self, String> {
        let items = j.as_arr().ok_or_else(|| "is not an array".to_string())?;
        items.iter().map(T::from_json).collect()
    }

    /// An element's error names the field and index (`` `cells[3]` ``).
    fn read_field(obj: &Json, key: &str) -> Result<Self, String> {
        let items = obj
            .field(key)?
            .as_arr()
            .ok_or_else(|| format!("field `{key}` is not an array"))?;
        items
            .iter()
            .enumerate()
            .map(|(i, v)| T::from_json(v).map_err(|e| format!("`{key}[{i}]` {e}")))
            .collect()
    }
}

/// Implements [`Field`] for a report record from one table of its fields,
/// in JSON order: `name as "key"` renames a field's JSON key, and the
/// fields of a trailing `optional { … }` group are omitted when `null` or
/// empty and read back as their default when absent, so records that lack
/// them keep their exact earlier bytes. The CSV columns are the
/// always-written fields', flattened. A table that leaves out a field, or
/// names one the struct lacks, does not compile.
///
/// A record the regression gate compares names each field's diff rule
/// after a colon (`cc_init: cost`, `name as "campaign": title`), and also
/// gets a [`Diff`](crate::diff::Diff) walk that runs every rule in table
/// order. A rule is a function in scope at the table with the signature of
/// those in [`crate::diff`]; a table in which one field lacks its rule does
/// not compile.
macro_rules! record {
    (@key $field:ident) => {
        stringify!($field)
    };
    (@key $field:ident $key:literal) => {
        $key
    };
    (@id id $value:expr) => {
        Some($value.as_str())
    };
    (@id $rule:ident $value:expr) => {
        None
    };
    (
        $ty:ident { $($field:ident $(as $key:literal)? : $rule:ident),+ $(,)? }
        $(optional { $($opt:ident : $opt_rule:ident),+ $(,)? })?
    ) => {
        $crate::json::record!(@field $ty { $($field $(as $key)?),+ } $(optional { $($opt),+ })?);

        impl $crate::diff::Diff for $ty {
            fn id(&self) -> String {
                let parts: Vec<&str> = [$($crate::json::record!(@id $rule self.$field)),+]
                    .into_iter()
                    .flatten()
                    .collect();
                parts.join("/")
            }

            fn diff(base: &Self, now: &Self, gate: &mut $crate::diff::Gate) {
                $($rule(
                    gate,
                    $crate::json::record!(@key $field $($key)?),
                    &base.$field,
                    &now.$field,
                    (base, now),
                );)+
                $($($opt_rule(gate, stringify!($opt), &base.$opt, &now.$opt, (base, now));)+)?
            }
        }
    };
    ($ty:ident { $($field:ident $(as $key:literal)?),+ $(,)? }) => {
        $crate::json::record!(@field $ty { $($field $(as $key)?),+ });
    };
    (
        @field $ty:ident { $($field:ident $(as $key:literal)?),+ }
        $(optional { $($opt:ident),+ })?
    ) => {
        impl $crate::json::Field for $ty {
            fn to_json(&self) -> $crate::json::Json {
                #[allow(unused_mut, reason = "only records with an `optional` group push onto `fields`")]
                let mut fields = vec![$((
                    $crate::json::record!(@key $field $($key)?),
                    $crate::json::Field::to_json(&self.$field),
                )),+];
                $($(
                    let value = $crate::json::Field::to_json(&self.$opt);
                    if value != $crate::json::Json::Null && value != $crate::json::Json::Arr(vec![]) {
                        fields.push((stringify!($opt), value));
                    }
                )+)?
                $crate::json::Json::obj(fields)
            }

            fn from_json(j: &$crate::json::Json) -> Result<Self, String> {
                Ok($ty {
                    $($field: j.read($crate::json::record!(@key $field $($key)?))?,)+
                    $($($opt: match j.get(stringify!($opt)) {
                        None => Default::default(),
                        Some(_) => j.read(stringify!($opt))?,
                    },)+)?
                })
            }

            fn csv_columns(_key: &str) -> Vec<String> {
                [$($crate::json::columns_of(
                    |r: &Self| &r.$field,
                    $crate::json::record!(@key $field $($key)?),
                )),+]
                .concat()
            }

            fn csv_cells(&self) -> Vec<String> {
                [$($crate::json::Field::csv_cells(&self.$field)),+].concat()
            }
        }
    };
}
pub(crate) use record;

/// The CSV columns of the record field `get` borrows: how `record!` names a
/// field's type without spelling it.
pub(crate) fn columns_of<R, T: Field>(_get: fn(&R) -> &T, key: &str) -> Vec<String> {
    T::csv_columns(key)
}

/// Quotes a CSV field when it contains a separator, quote, or line break
/// (RFC 4180 requires quoting CR as well as LF): label fields like
/// `theta(1,2,3)` must not split columns or rows.
pub(crate) fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') || s.contains('\r') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// A CSV document: the `header` line, then one line per row of cells.
pub(crate) fn csv_lines(header: Vec<String>, rows: impl Iterator<Item = Vec<String>>) -> String {
    std::iter::once(header)
        .chain(rows)
        .map(|cells| cells.join(",") + "\n")
        .collect()
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

/// Parses the value at `pos`, which sits inside `depth` arrays or objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'[' | b'{')) && depth == MAX_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}"
        ));
    }
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
                items.push(parse_value(bytes, pos, depth + 1)?);
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
                let value = parse_value(bytes, pos, depth + 1)?;
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
                        let start = *pos - 1;
                        let mut code = hex4(bytes, *pos + 1)
                            .ok_or_else(|| format!("bad \\u escape at byte {start}"))?;
                        *pos += 4;
                        if (0xD800..0xDC00).contains(&code) {
                            // A high surrogate followed by an escaped low one
                            // is one character.
                            let low = match bytes.get(*pos + 1..*pos + 3) {
                                Some(b"\\u") => hex4(bytes, *pos + 3)
                                    .filter(|low| (0xDC00..0xE000).contains(low)),
                                _ => None,
                            };
                            if let Some(low) = low {
                                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                *pos += 6;
                            }
                        }
                        // Only a surrogate left unpaired is not a character.
                        let c = char::from_u32(code).ok_or_else(|| {
                            format!("lone surrogate \\u{code:04x} at byte {start}")
                        })?;
                        out.push(c);
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

/// The value of the four ASCII hex digits at `at`, if there are four.
fn hex4(bytes: &[u8], at: usize) -> Option<u32> {
    let digits = bytes.get(at..at + 4)?;
    digits
        .iter()
        .try_fold(0, |acc, &b| Some(acc * 16 + char::from(b).to_digit(16)?))
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii");
    // `1e400` parses as infinity, which `render` would write as `null`.
    match text.parse::<f64>() {
        Ok(x) if x.is_finite() => Ok(Json::Num(x)),
        Ok(_) => Err(format!("number out of range at byte {start}")),
        Err(_) => Err(format!("invalid number at byte {start}")),
    }
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
            Json::parse(r#"{"n": 70000, "f": 2.9, "s": "x", "b": true, "a": [1, -7], "z": null}"#)
                .unwrap();
        assert_eq!(doc.read::<u32>("n"), Ok(70_000));
        for key in ["n", "f", "s"] {
            let err = format!("field `{key}` is not an integer in range");
            assert_eq!(doc.read::<u16>(key), Err(err));
        }
        assert_eq!(doc.read::<u16>("nope"), Err("field `nope` missing".into()));
        assert_eq!(doc.read::<String>("s").as_deref(), Ok("x"));
        assert_eq!(
            doc.read::<String>("b").unwrap_err(),
            "field `b` is not a string"
        );
        assert_eq!(doc.read("b"), Ok(true));
        assert_eq!(doc.read("f"), Ok(2.9));
        assert_eq!(doc.read::<Option<u32>>("z"), Ok(None));
        assert_eq!(doc.read::<Option<u32>>("n"), Ok(Some(70_000)));
        assert_eq!(
            doc.read::<Vec<u16>>("a").unwrap_err(),
            "`a[1]` is not an integer in range"
        );
        assert_eq!(
            doc.read::<Vec<u16>>("n").unwrap_err(),
            "field `n` is not an array"
        );
    }

    #[test]
    fn csv_columns_flatten_and_absent_values_leave_empty_cells() {
        assert_eq!(<Option<u64>>::csv_columns("seed"), vec!["seed"]);
        assert_eq!(None::<u64>.csv_cells(), vec![""]);
        assert_eq!(Some(7u64).csv_cells(), vec!["7"]);
        assert!(<Vec<u64>>::csv_columns("rates").is_empty());
        assert_eq!(
            "theta(1,2,3)".to_string().csv_cells(),
            vec!["\"theta(1,2,3)\""]
        );
        let rows = [vec!["1".to_string(), String::new()]].into_iter();
        assert_eq!(csv_lines(vec!["a".into(), "b".into()], rows), "a,b\n1,\n");
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in ["", "{", "[1,", "{\"a\"}", "nul", "1 2", "\"unterminated"] {
            assert!(Json::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn nesting_beyond_the_depth_limit_is_an_error_not_a_stack_overflow() {
        let nested = |levels: usize| "[".repeat(levels) + &"]".repeat(levels);
        let err = Json::parse(&nested(200_000)).unwrap_err();
        assert_eq!(err, "nesting deeper than 64 levels at byte 64");
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err, "nesting deeper than 64 levels at byte 64");
        let objects = r#"{"a":"#.repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        let err = Json::parse(&objects).unwrap_err();
        assert_eq!(err, "nesting deeper than 64 levels at byte 320");
    }

    #[test]
    fn numbers_that_overflow_f64_are_rejected() {
        let err = Json::parse(r#"{"success_rate": 1e400}"#).unwrap_err();
        assert_eq!(err, "number out of range at byte 17");
        assert_eq!(
            Json::parse("[1, -1e309]").unwrap_err(),
            "number out of range at byte 4"
        );
        // Tiny values underflow to zero, which is finite and written back.
        assert_eq!(Json::parse("1e-400"), Ok(Json::Num(0.0)));
        assert_eq!(Json::parse("1.7e308"), Ok(Json::Num(1.7e308)));
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
    fn unicode_escapes_take_exactly_four_hex_digits() {
        // `from_str_radix` would have read `+041` as 0x41.
        for bad in [
            r#""q\u+041""#,
            r#""q\u-041""#,
            r#""q\u00e""#,
            r#""q\u 041""#,
        ] {
            assert_eq!(
                Json::parse(bad).unwrap_err(),
                "bad \\u escape at byte 2",
                "{bad}"
            );
        }
        assert_eq!(
            Json::parse(r#""q\u0041\u00E9""#),
            Ok(Json::Str("qAé".into()))
        );
    }

    #[test]
    fn surrogate_pairs_decode_to_one_character() {
        let parsed = Json::parse(r#""a\ud83d\ude00b\uD834\uDD1E""#).unwrap();
        assert_eq!(parsed.as_str(), Some("a\u{1f600}b\u{1d11e}"));
    }

    #[test]
    fn lone_surrogates_are_rejected() {
        for (bad, err) in [
            (r#""\ud800""#, "lone surrogate \\ud800 at byte 1"),
            (r#""x\udbff\u0041""#, "lone surrogate \\udbff at byte 2"),
            (r#""\ud800\ud800""#, "lone surrogate \\ud800 at byte 1"),
            (r#""\udc00""#, "lone surrogate \\udc00 at byte 1"),
            (r#""\ud800\""#, "lone surrogate \\ud800 at byte 1"),
        ] {
            assert_eq!(Json::parse(bad).unwrap_err(), err, "{bad}");
        }
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
