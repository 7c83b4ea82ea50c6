//! A small, strict JSON reader and writer for the wire format.
//!
//! The server's request bodies are tiny (two query strings and a handful
//! of integer knobs), so this is a plain recursive-descent parser over the
//! full byte slice — no streaming, no incremental state. It accepts
//! exactly the JSON the API documents: objects, arrays, strings, booleans,
//! `null`, and **unsigned integers**. Floats, exponents and negative
//! numbers are rejected — no field of the API is fractional, and refusing
//! them early gives a clearer `parse_error` than a silent truncation
//! would.
//!
//! The writer side is [`escape_into`], shared by the response builders in
//! [`crate::api`]; responses are assembled with `write!` into a `String`
//! in the same style as `flogic-obs`'s exporters.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Maximum nesting depth the parser will follow. The documented request
/// bodies nest three levels (`{"pairs": [[q1, q2], …]}`); 32 leaves
/// headroom while keeping hostile inputs from recursing unboundedly.
const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
///
/// Object keys are kept in a `BTreeMap`: request objects are small, and
/// deterministic iteration order keeps error messages stable.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (the only number shape the API uses).
    Num(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is a number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }
}

/// Parses `text` as a single JSON value; trailing garbage is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    skip_ws(bytes, &mut pos);
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes after value at offset {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\r' | b'\n') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH}"));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') => parse_literal(bytes, pos, b"true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, b"false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, b"null", Json::Null),
        Some(b'0'..=b'9') => parse_number(bytes, pos),
        Some(&c) => Err(format!(
            "unexpected byte {:?} at offset {}",
            char::from(c),
            *pos
        )),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, word: &[u8], value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("malformed literal at offset {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
        *pos += 1;
    }
    if let Some(b'.' | b'e' | b'E') = bytes.get(*pos) {
        return Err(format!(
            "only unsigned integers are accepted (offset {start})"
        ));
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("integer out of range at offset {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
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
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at offset {}", *pos))?;
                        // Surrogate pairs are not needed by any query
                        // syntax; reject rather than mis-decode.
                        let c = char::from_u32(hex)
                            .ok_or_else(|| format!("non-scalar \\u escape at offset {}", *pos))?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at offset {}", *pos)),
                }
                *pos += 1;
            }
            Some(&c) if c < 0x20 => {
                return Err(format!("raw control byte in string at offset {}", *pos));
            }
            Some(_) => {
                // Copy the whole run of plain bytes at once. It ends only
                // at an ASCII byte (`"`, `\` or a control byte), and so on
                // a char boundary of the `&str` the bytes came from.
                let start = *pos;
                *pos = bytes[start..]
                    .iter()
                    .position(|&b| matches!(b, b'"' | b'\\' | 0..=0x1f))
                    .map_or(bytes.len(), |run| start + run);
                let run = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
                out.push_str(run);
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        skip_ws(bytes, pos);
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at offset {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut members = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected string key at offset {}", *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at offset {}", *pos));
        }
        *pos += 1;
        skip_ws(bytes, pos);
        let value = parse_value(bytes, pos, depth + 1)?;
        match members.entry(key) {
            Entry::Occupied(e) => return Err(format!("duplicate key {:?}", e.key())),
            Entry::Vacant(v) => {
                v.insert(value);
            }
        }
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at offset {}", *pos)),
        }
    }
}

/// Appends `s` to `out` as a JSON string literal, quotes included.
pub fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_request_shapes() {
        let single = parse(r#"{"q1":"q(X) :- sub(X, Y).","q2":"p(X) :- sub(X, Y).","timeout_ms":250,"analysis":false}"#).unwrap();
        let obj = single.as_obj().unwrap();
        assert!(obj["q1"].as_str().unwrap().starts_with("q(X)"));
        assert_eq!(obj["timeout_ms"].as_u64(), Some(250));
        assert_eq!(obj["analysis"].as_bool(), Some(false));

        let batch = parse(r#"{"pairs":[["a","b"],["a","c"]]}"#).unwrap();
        let pairs = batch.as_obj().unwrap()["pairs"].as_arr().unwrap();
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[1].as_arr().unwrap()[1].as_str(), Some("c"));
    }

    #[test]
    fn string_escapes_round_trip() {
        let mut lit = String::new();
        escape_into(&mut lit, "a\"b\\c\nd\te\u{1}f");
        let back = parse(&lit).unwrap();
        assert_eq!(back.as_str(), Some("a\"b\\c\nd\te\u{1}f"));
        // Unicode escapes decode too.
        // \u escapes and raw multi-byte UTF-8 both decode.
        assert_eq!(parse(r#""\u00e9A""#).unwrap().as_str(), Some("\u{e9}A"));
        assert_eq!(parse(r#""éA""#).unwrap().as_str(), Some("\u{e9}A"));
    }

    #[test]
    fn rejects_what_the_api_does_not_use() {
        for bad in [
            "1.5",
            "-3",
            "1e9",
            "{\"a\":1,\"a\":2}",
            "[1,]",
            "{\"a\" 1}",
            "\"unterminated",
            "[1] []",
            "18446744073709551616", // u64::MAX + 1
        ] {
            assert!(parse(bad).is_err(), "{bad} should be rejected");
        }
        // Depth bomb stops at MAX_DEPTH instead of recursing away.
        let bomb = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&bomb).unwrap_err().contains("nesting"));
    }

    #[test]
    fn empty_containers_and_literals_parse() {
        assert_eq!(parse("{}").unwrap(), Json::Obj(BTreeMap::new()));
        assert_eq!(parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(parse(" null ").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
    }
}
