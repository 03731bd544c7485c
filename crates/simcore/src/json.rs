//! Minimal JSON value model, parser and writer.
//!
//! The workspace writes experiment reports and traces as JSON and reads
//! them back, but builds in environments with no access to crates.io, so
//! this module supplies the small self-contained subset of serde_json the
//! repo needs: a [`Json`] value type, [`Json::parse`], compact and pretty
//! writers, indexing, and a [`ToJson`] conversion trait with an
//! [`impl_to_json!`](crate::impl_to_json) helper macro for flat structs.
//!
//! Numbers distinguish integers from floats so integer counters
//! round-trip exactly. [`write_i64`] and [`write_f64`] are the one
//! definition of number spelling: the value writers here, the trace
//! encoder and every report go through them. Floats are spelled exactly
//! as std's `{}` spells them (the shortest digits that round-trip),
//! computed in-house without `core::fmt`, which keeps reports
//! byte-identical across runs of the same seed.
//!
//! # Example
//!
//! ```
//! use simcore::json::{Json, ToJson};
//!
//! let v = Json::parse(r#"{"rate": 2.5, "frames": [1, 2]}"#).unwrap();
//! assert_eq!(v["rate"].as_f64(), Some(2.5));
//! assert_eq!(v["frames"][1].as_u64(), Some(2));
//! assert_eq!(vec![1u64, 2].to_json().dump(), "[1,2]");
//! ```

use std::collections::BTreeMap;
use std::fmt;

mod shortest;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer number (no fractional part or exponent in the source).
    Int(i64),
    /// A floating-point number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

/// A parse error with byte offset context.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input where parsing failed.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

static NULL: Json = Json::Null;

impl Json {
    /// Builds an object from `(key, value)` pairs.
    #[must_use]
    pub fn obj(pairs: Vec<(String, Json)>) -> Json {
        Json::Obj(pairs)
    }

    /// `true` for `Json::Null`.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// The value as a bool, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an `f64` (integers widen), if numeric.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Looks up a key in an object; `None` for missing keys or non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on malformed input or trailing garbage.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError {
                message: "trailing characters after value".into(),
                offset: pos,
            });
        }
        Ok(value)
    }

    /// Compact single-line serialization.
    #[must_use]
    pub fn dump(&self) -> String {
        let mut out = Vec::new();
        self.write(&mut out, None, 0);
        String::from_utf8(out).expect("JSON text is UTF-8")
    }

    /// Pretty-printed serialization with two-space indentation.
    #[must_use]
    pub fn pretty(&self) -> String {
        let mut out = Vec::new();
        self.write(&mut out, Some(2), 0);
        String::from_utf8(out).expect("JSON text is UTF-8")
    }

    fn write(&self, out: &mut Vec<u8>, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.extend_from_slice(b"null"),
            Json::Bool(true) => out.extend_from_slice(b"true"),
            Json::Bool(false) => out.extend_from_slice(b"false"),
            Json::Int(i) => write_i64(out, *i),
            Json::Num(x) => write_f64(out, *x),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => write_seq(out, indent, depth, items.len(), b'[', b']', |out, i| {
                items[i].write(out, indent, depth + 1);
            }),
            Json::Obj(pairs) => write_seq(out, indent, depth, pairs.len(), b'{', b'}', |out, i| {
                write_string(out, &pairs[i].0);
                out.push(b':');
                if indent.is_some() {
                    out.push(b' ');
                }
                pairs[i].1.write(out, indent, depth + 1);
            }),
        }
    }
}

fn write_seq(
    out: &mut Vec<u8>,
    indent: Option<usize>,
    depth: usize,
    len: usize,
    open: u8,
    close: u8,
    mut item: impl FnMut(&mut Vec<u8>, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(b',');
        }
        if let Some(step) = indent {
            out.push(b'\n');
            out.resize(out.len() + step * (depth + 1), b' ');
        }
        item(out, i);
    }
    if let Some(step) = indent {
        out.push(b'\n');
        out.resize(out.len() + step * depth, b' ');
    }
    out.push(close);
}

/// `DIGIT_PAIRS[2 * n..2 * n + 2]` spells `n` for every `n` in `0..100`.
static DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0; 200];
    let mut n = 0;
    while n < 100 {
        pairs[2 * n] = b'0' + (n / 10) as u8;
        pairs[2 * n + 1] = b'0' + (n % 10) as u8;
        n += 1;
    }
    pairs
};

/// Spells `n` in decimal, two digits at a time, right-aligned in
/// `buf`; returns the index of the first digit.
fn decimal_digits(mut n: u64, buf: &mut [u8; 20]) -> usize {
    let mut pos = buf.len();
    while n >= 100 {
        let pair = 2 * (n % 100) as usize;
        n /= 100;
        pos -= 2;
        buf[pos..pos + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = 2 * n as usize;
        pos -= 2;
        buf[pos..pos + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        pos -= 1;
        buf[pos] = b'0' + n as u8;
    }
    pos
}

/// Appends the JSON spelling of an integer: its decimal digits, with a
/// leading `-` when negative. Allocation-free beyond growing `out`.
pub fn write_i64(out: &mut Vec<u8>, i: i64) {
    if i < 0 {
        out.push(b'-');
    }
    let mut buf = [0; 20];
    let start = decimal_digits(i.unsigned_abs(), &mut buf);
    out.extend_from_slice(&buf[start..]);
}

/// Appends the JSON spelling of a float: exactly what std's `{}`
/// writes (the shortest digits that read back as `x`, nearest `x`, an
/// exact midpoint rounded up, in positional notation), followed by
/// `.0` when that has no `.`. Negative zero is `-0.0`; NaN and
/// infinities are `null`. Allocation-free beyond growing `out`.
pub fn write_f64(out: &mut Vec<u8>, x: f64) {
    if !x.is_finite() {
        // JSON has no NaN/Infinity; follow serde_json's lossy convention.
        out.extend_from_slice(b"null");
        return;
    }
    if x.is_sign_negative() {
        out.push(b'-');
    }
    if x == 0.0 {
        out.extend_from_slice(b"0.0");
        return;
    }
    let (mantissa, exponent) = shortest::shortest(x.abs().to_bits());
    let mut buf = [0; 20];
    let start = decimal_digits(mantissa, &mut buf);
    let digits = &buf[start..];
    // Digits before the decimal point; `<= 0` puts zeros after it.
    let point = digits.len() as i32 + exponent;
    if point <= 0 {
        out.extend_from_slice(b"0.");
        out.resize(out.len() + point.unsigned_abs() as usize, b'0');
        out.extend_from_slice(digits);
    } else if (point as usize) < digits.len() {
        let (whole, fraction) = digits.split_at(point as usize);
        out.extend_from_slice(whole);
        out.push(b'.');
        out.extend_from_slice(fraction);
    } else {
        // An integer: keep it recognizable as a float on re-parse.
        out.extend_from_slice(digits);
        out.resize(out.len() + point as usize - digits.len(), b'0');
        out.extend_from_slice(b".0");
    }
}

/// Appends `s` as a JSON string, copying each run of bytes that needs
/// no escape in one step.
fn write_string(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bytes = s.as_bytes();
    out.push(b'"');
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let mut control;
        let escape: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0..=0x1f => {
                control = *b"\\u0000";
                control[4] = HEX[usize::from(b >> 4)];
                control[5] = HEX[usize::from(b & 15)];
                &control
            }
            _ => continue,
        };
        out.extend_from_slice(&bytes[run..i]);
        out.extend_from_slice(escape);
        run = i + 1;
    }
    out.extend_from_slice(&bytes[run..]);
    out.push(b'"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn err(message: &str, offset: usize) -> JsonError {
    JsonError {
        message: message.into(),
        offset,
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(err(&format!("expected `{lit}`"), *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err("unexpected end of input", *pos)),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
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
                    _ => return Err(err("expected `,` or `]`", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(err("expected `:`", *pos));
                }
                *pos += 1;
                let value = parse_value(bytes, pos)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(err("expected `,` or `}`", *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(err("expected string", *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        // Copy the run up to the next `"` or `\` in one step. The input
        // came from a `&str` and both delimiters are ASCII, so the run is
        // whole characters and each byte is validated once.
        let end = bytes[*pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .map_or(bytes.len(), |n| *pos + n);
        let run = std::str::from_utf8(&bytes[*pos..end]).map_err(|_| err("invalid utf-8", *pos))?;
        out.push_str(run);
        *pos = end;
        match bytes.get(*pos) {
            None => return Err(err("unterminated string", *pos)),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(_) => {
                // A backslash: one escape.
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err("truncated \\u escape", *pos))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| err("invalid \\u escape", *pos))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err("invalid \\u escape", *pos))?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(err("invalid escape", *pos)),
                }
                *pos += 1;
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| err("bad number", start))?;
    if text.is_empty() || text == "-" {
        return Err(err("expected number", start));
    }
    if is_float {
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| err("invalid float", start))
    } else {
        text.parse::<i64>()
            .map(Json::Int)
            .or_else(|_| text.parse::<f64>().map(Json::Num))
            .map_err(|_| err("invalid integer", start))
    }
}

impl std::ops::Index<&str> for Json {
    type Output = Json;
    fn index(&self, key: &str) -> &Json {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Json {
    type Output = Json;
    fn index(&self, i: usize) -> &Json {
        match self {
            Json::Arr(items) => items.get(i).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl std::ops::IndexMut<&str> for Json {
    fn index_mut(&mut self, key: &str) -> &mut Json {
        match self {
            Json::Obj(pairs) => {
                if let Some(i) = pairs.iter().position(|(k, _)| k == key) {
                    &mut pairs[i].1
                } else {
                    pairs.push((key.to_string(), Json::Null));
                    &mut pairs.last_mut().expect("just pushed").1
                }
            }
            _ => panic!("cannot index non-object with a string key"),
        }
    }
}

impl std::ops::IndexMut<usize> for Json {
    fn index_mut(&mut self, i: usize) -> &mut Json {
        match self {
            Json::Arr(items) => &mut items[i],
            _ => panic!("cannot index non-array with a number"),
        }
    }
}

impl PartialEq<&str> for Json {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<u64> for Json {
    fn eq(&self, other: &u64) -> bool {
        self.as_u64() == Some(*other)
    }
}

impl PartialEq<i32> for Json {
    fn eq(&self, other: &i32) -> bool {
        self.as_i64() == Some(i64::from(*other))
    }
}

impl PartialEq<f64> for Json {
    fn eq(&self, other: &f64) -> bool {
        self.as_f64() == Some(*other)
    }
}

/// Conversion into a [`Json`] value.
pub trait ToJson {
    /// Converts `self` into a JSON value.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        Json::Num(f64::from(*self))
    }
}

macro_rules! int_to_json {
    ($($ty:ty),*) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                Json::Int(*self as i64)
            }
        }
    )*};
}

int_to_json!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for char {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }
}

impl ToJson for crate::time::SimTime {
    fn to_json(&self) -> Json {
        nanos_to_json(self.as_nanos())
    }
}

impl ToJson for crate::time::SimDuration {
    fn to_json(&self) -> Json {
        nanos_to_json(self.as_nanos())
    }
}

/// Clock values serialize as integer nanoseconds (exact round-trip); the
/// `u64::MAX` sentinels fall back to a float rather than wrapping.
fn nanos_to_json(nanos: u64) -> Json {
    if let Ok(i) = i64::try_from(nanos) {
        Json::Int(i)
    } else {
        Json::Num(nanos as f64)
    }
}

impl<K: fmt::Display, V: ToJson> ToJson for BTreeMap<K, V> {
    fn to_json(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(k, v)| (k.to_string(), v.to_json()))
                .collect(),
        )
    }
}

/// Implements [`ToJson`](crate::json::ToJson) for a struct with the named
/// fields, producing an object in field order:
///
/// ```
/// struct Row { freq_mhz: f64, label: &'static str }
/// simcore::impl_to_json!(Row { freq_mhz, label });
/// let row = Row { freq_mhz: 221.2, label: "max" };
/// assert_eq!(
///     simcore::json::ToJson::to_json(&row).dump(),
///     r#"{"freq_mhz":221.2,"label":"max"}"#
/// );
/// ```
#[macro_export]
macro_rules! impl_to_json {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::obj(vec![
                    $(
                        (
                            stringify!($field).to_string(),
                            $crate::json::ToJson::to_json(&self.$field),
                        ),
                    )+
                ])
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_dump_roundtrip() {
        let text = r#"{"a":1,"b":[true,null,2.5],"c":"x\"y"}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.dump(), text);
        assert_eq!(v["a"], 1u64);
        assert_eq!(v["b"][2], 2.5);
        assert_eq!(v["c"], "x\"y");
    }

    #[test]
    fn integers_and_floats_are_distinct() {
        let v = Json::parse("[7, 7.0, -3, 1e3]").unwrap();
        assert_eq!(v[0].as_u64(), Some(7));
        assert_eq!(v[1].as_u64(), None);
        assert_eq!(v[1].as_f64(), Some(7.0));
        assert_eq!(v[2].as_i64(), Some(-3));
        assert_eq!(v[3].as_f64(), Some(1000.0));
    }

    #[test]
    fn float_formatting_round_trips() {
        for x in [0.1, 1.0 / 3.0, 1e-300, 12345.6789, f64::MAX] {
            let v = Json::Num(x).dump();
            let back = Json::parse(&v).unwrap();
            assert_eq!(back.as_f64(), Some(x), "{v}");
        }
    }

    #[test]
    fn pretty_print_is_indented() {
        let v = Json::parse(r#"{"a":[1,2]}"#).unwrap();
        let p = v.pretty();
        assert!(p.contains("\n  \"a\": [\n    1,\n    2\n  ]\n"), "{p}");
        assert_eq!(Json::parse(&p).unwrap(), v);
    }

    #[test]
    fn missing_lookups_are_null() {
        let v = Json::parse(r#"{"a": 1}"#).unwrap();
        assert!(v["nope"].is_null());
        assert!(v["a"]["deeper"].is_null());
        assert!(v[3].is_null());
    }

    #[test]
    fn index_mut_replaces_values() {
        let mut v = Json::parse(r#"{"xs":[{"k":1}]}"#).unwrap();
        v["xs"][0]["k"] = Json::Int(9);
        assert_eq!(v["xs"][0]["k"], 9u64);
    }

    #[test]
    fn malformed_inputs_error() {
        for bad in ["", "{", "[1,", "nul", "\"abc", "{\"a\" 1}", "1 2"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn number_writers_match_the_std_spelling() {
        let mut out = Vec::new();
        for i in [
            0,
            7,
            -1,
            10,
            -10,
            99,
            100,
            1_234_567_890,
            i64::MAX,
            i64::MIN,
        ] {
            out.clear();
            write_i64(&mut out, i);
            assert_eq!(out, i.to_string().as_bytes());
        }
        for (x, text) in [
            (0.0, "0.0"),
            (-0.0, "-0.0"),
            (2.5, "2.5"),
            (-0.001, "-0.001"),
            (1e21, "1000000000000000000000.0"),
            (2f64.powi(50) + 0.25, "1125899906842624.3"),
            (5e-324, &format!("0.{}5", "0".repeat(323))),
            (f64::NEG_INFINITY, "null"),
        ] {
            out.clear();
            write_f64(&mut out, x);
            assert_eq!(out, text.as_bytes());
        }
        out.clear();
        write_i64(&mut out, -3);
        write_f64(&mut out, 1.5);
        assert_eq!(out, b"-31.5", "writers append");
    }

    #[test]
    fn large_documents_round_trip_with_every_escape() {
        let text =
            "caf\u{e9} \u{4e2d}\u{6587} \u{1f3b5} \"q\" back\\slash\nnew\rret\ttab\u{1}\u{1f}/";
        let doc = Json::Arr(
            (0..20_000)
                .map(|i| {
                    Json::obj(vec![
                        (format!("k\u{e9}y{i}"), Json::Str(format!("{text}{i}"))),
                        ("n".into(), Json::Num(f64::from(i) / 7.0)),
                    ])
                })
                .collect(),
        );
        let dumped = doc.dump();
        assert!(dumped.len() > 1_500_000, "{} bytes", dumped.len());
        assert_eq!(Json::parse(&dumped).unwrap(), doc);
        assert_eq!(Json::parse(&doc.pretty()).unwrap(), doc);
        // Escapes the writer never emits still parse.
        assert_eq!(
            Json::parse(r#""\/\b\f\u00e9\u4E2D""#).unwrap(),
            Json::Str("/\u{8}\u{c}\u{e9}\u{4e2d}".into())
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::Num(f64::NAN).dump(), "null");
        assert_eq!(Json::Num(f64::INFINITY).dump(), "null");
    }

    #[test]
    fn to_json_for_collections() {
        let mut map = BTreeMap::new();
        map.insert("x".to_string(), 1u64);
        assert_eq!(map.to_json().dump(), r#"{"x":1}"#);
        assert_eq!(Some(2.5f64).to_json().dump(), "2.5");
        assert_eq!(None::<f64>.to_json().dump(), "null");
        assert_eq!(vec!["a", "b"].to_json().dump(), r#"["a","b"]"#);
    }

    #[test]
    fn escapes_in_strings() {
        let v = Json::Str("line\nbreak\t\"q\"".to_string());
        let text = v.dump();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }
}
